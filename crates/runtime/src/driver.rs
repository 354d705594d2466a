//! The threaded round driver: runs any [`RoundAlgorithm`] with one OS
//! thread per process over the delay-injecting network of
//! [`crate::net`], with failure detection from [`crate::fd`].
//!
//! The same driver realizes both models:
//!
//! * [`SyncPolicy::Rs`] — bounded-delay network + timeout detector +
//!   a *drain* anchored at the suspicion: a round closes without a
//!   sender's wire only once the sender has been suspected for the
//!   drain, so that in-flight messages from a crashed sender still land
//!   first, and a sender dead for many rounds costs the drain once.
//!   Under the delay bound this yields round synchrony (missing
//!   message ⇒ the sender never sent it to us).
//! * [`SyncPolicy::Rws`] — the §4.2 rule verbatim: close the round as
//!   soon as every peer has either delivered or become suspected.
//!   Messages that arrive after their round closed are *pending*,
//!   counted in [`ThreadedOutcome::pending_messages`].
//!
//! Each worker drives the sans-IO [`RoundCore`] the socket node runs
//! too, adding the scripted crash, stall and retirement, its own
//! heartbeat, and the ledger that tells a detector mistake from a crash.
//!
//! `RS` runs carry a **synchrony watchdog**
//! ([`crate::fd::SynchronyMonitor`]): the claimed delivery bound Δ is
//! checked at runtime (over-Δ scheduling and deliveries by the
//! network, detector mistakes and pending arrivals by the workers),
//! and on violation the run either keeps going *flagged*
//! ([`DegradeMode::Off`]), downgrades every still-open and future
//! round to `RWS` semantics ([`DegradeMode::Rws`] — suspicion closes
//! rounds, in-flight wires become pending, which is sound because
//! `RWS` never relied on Δ), or stops undecided
//! ([`DegradeMode::Abort`]). [`RuntimeConfig::validate`] rejects
//! configurations that could not realize `RS` even on a well-behaved
//! network (drain ≤ worst transport delay, FD timeout ≤ delay bound).

use core::fmt;
use std::sync::Arc;
use std::time::Duration;

use ssp_model::{
    process::all_processes, ConsensusOutcome, InitialConfig, ProcessId, ProcessOutcome, ProcessSet,
    Round, Value,
};
use ssp_rounds::{RoundAlgorithm, RoundModel, RoundProcess};

use crate::clock::{Backend, Clock, Tick};
use crate::fd::{
    CrashLedger, DegradeMode, FdModule, HeartbeatBoard, Oracle, SynchronyEvent, SynchronyMonitor,
    SynchronyReport, TimeoutFd,
};
use crate::net::{network, NetConfig, NetReceiver, NetSender, NetStats};
use crate::round::{Collected, RoundCore, RoundIo, Wire};
use crate::trace::{RoundObs, RunTrace};

/// Safety margin the auto-derived watchdog Δ adds on top of the
/// network's worst transport delay (absorbs scheduling jitter between
/// a wire's arrival time and its receiver taking it).
pub const WATCHDOG_MARGIN: Duration = Duration::from_millis(25);

/// Minimum headroom the FD timeout must keep above the delay bound
/// (heartbeats ride the scheduler, not the network, but the same
/// jitter budget applies).
pub const FD_TIMEOUT_MARGIN: Duration = Duration::from_millis(10);

/// When a round may close on a missing peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Suspicion + a drain period (realizes `RS` under bounded delays).
    Rs {
        /// How long a missing peer must have been suspected before a
        /// round closes without its wire: anchored at the suspicion,
        /// so paid once per suspicion, not per round. Must exceed the
        /// network's maximum delay for round synchrony to hold.
        drain: Duration,
    },
    /// Suspicion alone (realizes `RWS`; pending messages possible).
    Rws,
}

/// Which perfect-detector implementation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdFlavor {
    /// Heartbeats + timeout (the `SS` construction of §3).
    Timeout {
        /// Staleness threshold; must exceed the worst heartbeat gap.
        timeout: Duration,
    },
    /// Crash oracle with per-observer notification delays (the `SP`
    /// abstraction).
    Oracle {
        /// Minimum notification delay.
        min_notify: Duration,
        /// Maximum notification delay.
        max_notify: Duration,
    },
}

/// A scripted crash: the process stops during `round` after emitting
/// a subset of its `n` messages (self-delivery counts as a send slot).
/// A round beyond the horizon makes the process complete every round —
/// possibly deciding — and *then* crash.
///
/// With `sends_to: None` the emitted subset is the *prefix* of length
/// `after_sends` in process order — the seed-derived [`FaultPlan`]
/// shape. With `sends_to: Some(set)` the process emits exactly to the
/// members of `set` (in process order) and then dies at the end of the
/// send phase; `after_sends` is ignored. Arbitrary sets are what the
/// exploration layer needs: the canonical representative of a crash
/// orbit is rarely a prefix.
///
/// [`FaultPlan`]: crate::plan::FaultPlan
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCrash {
    /// The round during which the process crashes.
    pub round: u32,
    /// Messages it manages to emit in that round before dying
    /// (prefix mode; ignored when `sends_to` is set).
    pub after_sends: usize,
    /// Exact set of processes reached in the crash round, overriding
    /// the `after_sends` prefix when present.
    pub sends_to: Option<ProcessSet>,
}

impl ThreadCrash {
    /// Prefix-mode crash: die in `round` after the first `after_sends`
    /// send slots (the historical constructor shape).
    #[must_use]
    pub fn prefix(round: u32, after_sends: usize) -> Self {
        ThreadCrash {
            round,
            after_sends,
            sends_to: None,
        }
    }

    /// Set-mode crash: die in `round` after emitting exactly to `set`.
    #[must_use]
    pub fn sending_to(round: u32, set: ProcessSet) -> Self {
        ThreadCrash {
            round,
            after_sends: 0,
            sends_to: Some(set),
        }
    }

    /// Whether the crash round's wire to `q` is emitted.
    fn emits(&self, q: ProcessId) -> bool {
        match self.sends_to {
            Some(set) => set.contains(q),
            None => q.index() < self.after_sends,
        }
    }
}

/// A scripted heartbeat starvation: the process sleeps for `duration`
/// at the start of `round`, before sending or beating — live but
/// unresponsive, the raw material of detector mistakes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stall {
    /// The round whose start is delayed.
    pub round: u32,
    /// How long the process sleeps.
    pub duration: Duration,
}

/// Synchrony-watchdog configuration. The watchdog arms only under
/// [`SyncPolicy::Rs`] — `RWS` claims no delivery bound to violate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WatchdogConfig {
    /// Claimed transport-level delivery bound Δ. `None` derives it
    /// from the network: worst transport delay + [`WATCHDOG_MARGIN`].
    pub delta: Option<Duration>,
    /// What to do when the bound is violated.
    pub degrade: DegradeMode,
}

/// A configuration that cannot realize its claimed model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `crashes` must have one slot per process.
    CrashSlots {
        /// Expected length (`n`).
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// `stalls` must have one slot per process.
    StallSlots {
        /// Expected length (`n`).
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// The delay window is inverted.
    DelayWindow {
        /// Configured minimum delay.
        min: Duration,
        /// Configured maximum delay.
        max: Duration,
    },
    /// The `RS` drain does not cover the network's worst transport
    /// delay: a slow-but-in-bound wire could be declared absent and
    /// round synchrony silently forfeited.
    DrainTooShort {
        /// Configured drain.
        drain: Duration,
        /// Worst transport delay it must exceed.
        required: Duration,
    },
    /// The timeout detector's threshold does not clear the delay
    /// bound plus margin: a live process could be suspected under
    /// ordinary jitter, making the "perfect" detector imperfect by
    /// construction.
    FdTimeoutTooShort {
        /// Configured timeout.
        timeout: Duration,
        /// Bound + margin it must exceed.
        required: Duration,
    },
    /// The scripted oracle-notification matrix is not `n × n`.
    NotifyShape {
        /// Expected dimension (`n`).
        expected: usize,
    },
    /// A set-mode crash script names a receiver outside `0..n`.
    CrashSendSet {
        /// The crashing process.
        process: ProcessId,
        /// The offending receiver index.
        receiver: ProcessId,
        /// Number of processes (`n`).
        n: usize,
    },
    /// A sharded service was configured with zero shard groups; the
    /// key space has nowhere to live.
    ShardCountZero,
    /// The cross-shard fraction is not a probability. The rate is
    /// carried in per-mille so the error stays `Eq`-comparable.
    CrossShardRateOutOfRange {
        /// The offending rate, in per-mille of submissions.
        rate_pm: i64,
    },
    /// A cross-shard rate was explicitly requested on a single-group
    /// service: with `G = 1` every key has the same owner, so there is
    /// no second group for a transaction to span.
    CrossShardRateWithoutShards {
        /// The requested rate, in per-mille of submissions.
        rate_pm: i64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::CrashSlots { expected, got } => write!(
                f,
                "crash script must have one slot per process (expected {expected}, got {got})"
            ),
            ConfigError::StallSlots { expected, got } => write!(
                f,
                "stall script must have one slot per process (expected {expected}, got {got})"
            ),
            ConfigError::DelayWindow { min, max } => write!(
                f,
                "network delay window is inverted (min {min:?} > max {max:?})"
            ),
            ConfigError::DrainTooShort { drain, required } => write!(
                f,
                "RS drain {drain:?} does not exceed the worst transport delay {required:?}: \
                 an in-bound wire could be declared absent and round synchrony forfeited"
            ),
            ConfigError::FdTimeoutTooShort { timeout, required } => write!(
                f,
                "FD timeout {timeout:?} does not exceed the delay bound plus margin \
                 {required:?}: a live process could be suspected under ordinary jitter"
            ),
            ConfigError::NotifyShape { expected } => write!(
                f,
                "oracle notify script must be {expected}\u{d7}{expected} (one delay per \
                 crasher/observer pair)"
            ),
            ConfigError::CrashSendSet {
                process,
                receiver,
                n,
            } => write!(
                f,
                "crash script for {process} sends to {receiver}, outside the {n}-process ring"
            ),
            ConfigError::ShardCountZero => write!(
                f,
                "shard count must be at least 1: zero consensus groups cannot own a key space"
            ),
            ConfigError::CrossShardRateOutOfRange { rate_pm } => write!(
                f,
                "cross-shard rate {}\u{2030} is not a probability (need 0 \u{2264} rate \u{2264} 1)",
                rate_pm
            ),
            ConfigError::CrossShardRateWithoutShards { rate_pm } => write!(
                f,
                "cross-shard rate {}\u{2030} requested on a single-group service: \
                 transactions need --shards \u{2265} 2 to span groups",
                rate_pm
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of a threaded execution.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Network delays (and chaos faults).
    pub net: NetConfig,
    /// Round-closing policy.
    pub policy: SyncPolicy,
    /// Failure-detector implementation.
    pub fd: FdFlavor,
    /// Per-process crash script.
    pub crashes: Vec<Option<ThreadCrash>>,
    /// Per-process stall script (heartbeat starvation).
    pub stalls: Vec<Option<Stall>>,
    /// Synchrony-watchdog settings (effective under `RS` only).
    pub watchdog: WatchdogConfig,
    /// Hard per-round safety timeout (a liveness bug fails the run
    /// rather than hanging the test suite).
    pub round_timeout: Duration,
    /// Scripted oracle-notification delays, `[crasher][observer]`
    /// (see [`crate::fd::Oracle::scripted`]). Only meaningful with
    /// [`FdFlavor::Oracle`]; [`crate::FaultPlan`] fills this in.
    pub notify_script: Option<Vec<Vec<Duration>>>,
    /// Early-close fast path: a process that has decided burst-sends
    /// its remaining rounds and retires instead of waiting them out.
    /// Only effective when the algorithm declares
    /// [`ssp_rounds::RoundAlgorithm::retires_after_decision`]; the
    /// engine's instance pipelining turns this on so `A1`'s round-1
    /// decisions translate into shorter instances. Retired rounds are
    /// recorded in [`RunTrace::retired`] and excluded from full
    /// trace-replay conformance.
    pub early_close: bool,
}

impl RuntimeConfig {
    /// An `SS`-flavoured configuration: bounded delays, timeout
    /// detector, drain long enough for round synchrony.
    #[must_use]
    pub fn ss_flavor(n: usize, seed: u64) -> Self {
        let max_delay = Duration::from_millis(2);
        RuntimeConfig {
            net: NetConfig::bounded(max_delay, seed),
            policy: SyncPolicy::Rs {
                drain: Duration::from_millis(200),
            },
            fd: FdFlavor::Timeout {
                timeout: Duration::from_millis(100),
            },
            crashes: vec![None; n],
            stalls: vec![None; n],
            watchdog: WatchdogConfig::default(),
            round_timeout: Duration::from_secs(20),
            notify_script: None,
            early_close: false,
        }
    }

    /// An `SP`-flavoured configuration: oracle detector, suspicion
    /// closes rounds immediately.
    #[must_use]
    pub fn sp_flavor(n: usize, seed: u64) -> Self {
        RuntimeConfig {
            net: NetConfig::bounded(Duration::from_millis(2), seed),
            policy: SyncPolicy::Rws,
            fd: FdFlavor::Oracle {
                min_notify: Duration::from_millis(5),
                max_notify: Duration::from_millis(15),
            },
            crashes: vec![None; n],
            stalls: vec![None; n],
            watchdog: WatchdogConfig::default(),
            round_timeout: Duration::from_secs(20),
            notify_script: None,
            early_close: false,
        }
    }

    /// Scripts a crash.
    #[must_use]
    pub fn with_crash(mut self, p: ProcessId, crash: ThreadCrash) -> Self {
        self.crashes[p.index()] = Some(crash);
        self
    }

    /// Scripts a stall (heartbeat starvation).
    #[must_use]
    pub fn with_stall(mut self, p: ProcessId, stall: Stall) -> Self {
        self.stalls[p.index()] = Some(stall);
        self
    }

    /// Replaces the network configuration.
    #[must_use]
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Sets the watchdog's degradation mode.
    #[must_use]
    pub fn with_degrade(mut self, degrade: DegradeMode) -> Self {
        self.watchdog.degrade = degrade;
        self
    }

    /// Enables (or disables) the early-close fast path. No-op unless
    /// the algorithm declares
    /// [`ssp_rounds::RoundAlgorithm::retires_after_decision`].
    #[must_use]
    pub fn with_early_close(mut self, on: bool) -> Self {
        self.early_close = on;
        self
    }

    /// The watchdog Δ this configuration claims: the explicit value,
    /// or the network's worst transport delay plus
    /// [`WATCHDOG_MARGIN`].
    #[must_use]
    pub fn effective_delta(&self) -> Duration {
        self.watchdog
            .delta
            .unwrap_or(self.net.worst_transport_delay() + WATCHDOG_MARGIN)
    }

    /// Checks that this configuration can realize its claimed model
    /// for `n` processes: script shapes, a sane delay window, and —
    /// the paper's point — that drain and FD timeout actually clear
    /// the delay bound, without which the `RS`/perfect-detector claim
    /// is vacuous (§3).
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self, n: usize) -> Result<(), ConfigError> {
        if self.crashes.len() != n {
            return Err(ConfigError::CrashSlots {
                expected: n,
                got: self.crashes.len(),
            });
        }
        if self.stalls.len() != n {
            return Err(ConfigError::StallSlots {
                expected: n,
                got: self.stalls.len(),
            });
        }
        if self.net.min_delay > self.net.max_delay {
            return Err(ConfigError::DelayWindow {
                min: self.net.min_delay,
                max: self.net.max_delay,
            });
        }
        if let SyncPolicy::Rs { drain } = self.policy {
            let required = self.net.worst_transport_delay();
            if drain <= required {
                return Err(ConfigError::DrainTooShort { drain, required });
            }
        }
        if let FdFlavor::Timeout { timeout } = self.fd {
            let required = self.net.max_delay + FD_TIMEOUT_MARGIN;
            if timeout <= required {
                return Err(ConfigError::FdTimeoutTooShort { timeout, required });
            }
        }
        if let Some(script) = &self.notify_script {
            if script.len() != n || script.iter().any(|row| row.len() != n) {
                return Err(ConfigError::NotifyShape { expected: n });
            }
        }
        for (slot, crash) in self.crashes.iter().enumerate() {
            let Some(ThreadCrash {
                sends_to: Some(set),
                ..
            }) = crash
            else {
                continue;
            };
            if let Some(receiver) = set.iter().find(|q| q.index() >= n) {
                return Err(ConfigError::CrashSendSet {
                    process: ProcessId::new(slot),
                    receiver,
                    n,
                });
            }
        }
        Ok(())
    }
}

/// The result of a threaded execution.
#[derive(Debug)]
pub struct ThreadedOutcome<V, M> {
    /// Per-process consensus outcome (decisions include those made by
    /// processes that crashed afterwards).
    pub outcome: ConsensusOutcome<V>,
    /// Messages that arrived after their round had already closed at
    /// the receiver — real pending messages. Always 0 under
    /// [`SyncPolicy::Rs`] with an adequate drain and intact bounds.
    pub pending_messages: u64,
    /// Duration of the whole execution on the run's clock: wall time
    /// under [`Backend::Real`], simulated time under
    /// [`Backend::Virtual`].
    pub elapsed: Duration,
    /// The canonical record of the run: what every process sent and
    /// had received when each round closed, plus crash rounds —
    /// replayable through the round models.
    pub trace: RunTrace<M>,
    /// Everything the synchrony watchdog saw: violations, degradation,
    /// abort.
    pub synchrony: SynchronyReport,
    /// Transport counters (chaos drops/dups, retransmits, stranded
    /// wires).
    pub net: NetStats,
}

struct ProcessReturn<V, M> {
    outcome: ProcessOutcome<V>,
    retired: Option<Round>,
    pending_seen: u64,
    log: Vec<RoundObs<M>>,
}

/// Per-worker wiring, bundled to keep [`worker`]'s signature sane.
struct WorkerEnv<M> {
    me: ProcessId,
    n: usize,
    horizon: u32,
    /// Round-tagged wires; nulls go explicitly (§4.2) so receivers
    /// can stop waiting for live-but-silent peers.
    tx: NetSender<(u32, Option<M>)>,
    fd: Box<dyn FdModule>,
    board: Arc<HeartbeatBoard>,
    oracle: Arc<Oracle>,
    monitor: Arc<SynchronyMonitor>,
    ledger: Arc<CrashLedger>,
    crash: Option<ThreadCrash>,
    stall: Option<Stall>,
    policy: SyncPolicy,
    round_timeout: Duration,
    /// Early-close enabled *and* the algorithm declared itself
    /// retire-capable: a decided worker bursts its remaining rounds
    /// and stops receiving.
    retire: bool,
    /// The run's clock (shared by the network, detectors, and every
    /// worker).
    clock: Clock,
}

/// Runs `algo` on one OS thread per process over the chosen clock
/// backend. This is the engine behind [`crate::RuntimeBuilder::run`];
/// configuration errors are surfaced as values.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub(crate) fn run_on_backend<V, A>(
    algo: &A,
    config: &InitialConfig<V>,
    t: usize,
    runtime: RuntimeConfig,
    backend: Backend,
) -> Result<ThreadedOutcome<V, <A::Process as RoundProcess>::Msg>, ConfigError>
where
    V: Value + Sync,
    A: RoundAlgorithm<V>,
    A::Process: Send + 'static,
    <A::Process as RoundProcess>::Msg: Send + 'static,
{
    let n = config.n();
    runtime.validate(n)?;
    let clock = Clock::for_backend(backend);
    let horizon = algo.round_horizon(n, t);
    let retire = runtime.early_close && algo.retires_after_decision();
    let model = match runtime.policy {
        SyncPolicy::Rs { .. } => RoundModel::Rs,
        SyncPolicy::Rws => RoundModel::Rws,
    };
    let monitor = if model == RoundModel::Rs {
        SynchronyMonitor::armed(runtime.effective_delta(), runtime.watchdog.degrade)
    } else {
        SynchronyMonitor::disarmed()
    };
    let ledger = CrashLedger::new(n);
    let (net_tx, net_rxs, net) = network::<(u32, Option<<A::Process as RoundProcess>::Msg>)>(
        n,
        runtime.net.clone(),
        Arc::clone(&monitor),
        clock.clone(),
    );

    let board = HeartbeatBoard::new(n, clock.clone());
    let (min_notify, max_notify) = match runtime.fd {
        FdFlavor::Oracle {
            min_notify,
            max_notify,
        } => (min_notify, max_notify),
        FdFlavor::Timeout { .. } => (Duration::ZERO, Duration::ZERO),
    };
    let oracle = match &runtime.notify_script {
        Some(script) => Oracle::scripted(n, script.clone(), clock.clone()),
        None => Oracle::new(n, min_notify, max_notify, runtime.net.seed, clock.clone()),
    };

    let started = clock.now();
    // Reserve every worker's running slot before spawning any of them.
    // Registering lazily (each slot just before its own spawn) leaves a
    // window where the already-spawned workers are the only registered
    // threads: if the spawning thread is descheduled mid-loop, those
    // workers' polls drive virtual time forward unboundedly, and the
    // not-yet-spawned workers' epoch heartbeats go stale — live peers
    // get suspected before they ever run.
    for _ in all_processes(n) {
        clock.register();
    }
    let mut handles = Vec::with_capacity(n);
    for (me, rx) in all_processes(n).zip(net_rxs) {
        let proc_ = algo.spawn(me, n, t, config.input(me).clone());
        let input = config.input(me).clone();
        let fd: Box<dyn FdModule> = match runtime.fd {
            FdFlavor::Timeout { timeout } => {
                Box::new(TimeoutFd::new(Arc::clone(&board), timeout, me))
            }
            FdFlavor::Oracle { .. } => Box::new(oracle.module(me)),
        };
        let env = WorkerEnv {
            me,
            n,
            horizon,
            tx: net_tx.clone(),
            fd,
            board: Arc::clone(&board),
            oracle: Arc::clone(&oracle),
            monitor: Arc::clone(&monitor),
            ledger: Arc::clone(&ledger),
            crash: runtime.crashes[me.index()],
            stall: runtime.stalls[me.index()],
            policy: runtime.policy,
            round_timeout: runtime.round_timeout,
            retire,
            clock: clock.clone(),
        };
        let wclock = clock.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("ssp-{me}"))
                .spawn(move || {
                    let ret = worker(proc_, input, env, rx);
                    let finished = wclock.now();
                    wclock.deregister();
                    (ret, finished)
                })
                .expect("spawn worker"),
        );
    }
    drop(net_tx);

    let mut outcomes = Vec::with_capacity(n);
    let mut pending_total = 0;
    let mut logs = Vec::with_capacity(n);
    let mut crash_rounds = Vec::with_capacity(n);
    let mut retired_rounds = Vec::with_capacity(n);
    let mut ended = started;
    for h in handles {
        let (r, finished): (ProcessReturn<V, <A::Process as RoundProcess>::Msg>, Tick) =
            h.join().expect("worker thread panicked");
        ended = ended.max(finished);
        pending_total += r.pending_seen;
        logs.push(r.log);
        // Clamp post-horizon crash rounds to the round-model limit.
        let crashed_in = r.outcome.crashed_in;
        crash_rounds.push(crashed_in.map(|c| c.min(Round::new(horizon + 1))));
        retired_rounds.push(r.retired);
        outcomes.push(r.outcome);
    }
    // All workers are done: count what landed and what is still in
    // flight.
    let net_stats = net.finish();
    let synchrony = monitor.report();
    Ok(ThreadedOutcome {
        outcome: ConsensusOutcome::new(outcomes),
        pending_messages: pending_total,
        elapsed: ended.saturating_duration_since(started),
        trace: RunTrace {
            n,
            horizon,
            model,
            logs,
            crashes: crash_rounds,
            retired: retired_rounds,
            degraded_at: synchrony.degraded_at,
            aborted: synchrony.aborted,
        },
        synchrony,
        net: net_stats,
    })
}

/// How a worker's round loop ended.
enum Exit {
    /// Every round ran (or was burst) to the horizon.
    Completed,
    /// The scripted crash fired in this round.
    Crashed(u32),
    /// Gave up undecided: watchdog abort or round timeout.
    GaveUp,
}

/// The worker's side of [`RoundCore::collect`] in round `round`.
struct WorkerIo<'a, M> {
    env: &'a WorkerEnv<M>,
    rx: &'a mut NetReceiver<(u32, Option<M>)>,
    round: u32,
    /// Live peers already reported as detector mistakes (once each).
    mistaken: &'a mut [bool],
    deadline: Tick,
}

impl<M> RoundIo<M> for WorkerIo<'_, M> {
    fn aborted(&mut self) -> bool {
        if self.env.monitor.aborted() {
            return true;
        }
        // The worker's own heartbeat rides its polls.
        self.env.board.mark(self.env.me);
        false
    }

    fn suspected_for(&mut self, q: ProcessId) -> Option<Duration> {
        let suspected = self.env.fd.suspected_for(q);
        // The detector is about to be trusted on q. If q never actually
        // crashed, that is a detector mistake — report it (once) to the
        // watchdog.
        if suspected.is_some() && !self.mistaken[q.index()] && !self.env.ledger.crashed(q) {
            self.mistaken[q.index()] = true;
            self.env.monitor.record(SynchronyEvent::DetectorMistake {
                observer: self.env.me,
                suspect: q,
                round: Round::new(self.round),
            });
        }
        suspected
    }

    fn expired(&mut self) -> bool {
        // Liveness failure: give up undecided. The incomplete round
        // (without a crash) makes the trace inadmissible, which is
        // exactly what conformance should report.
        self.env.clock.now() > self.deadline
    }

    fn recv(&mut self) -> Option<Wire<M>> {
        let env = self.rx.recv_timeout(Duration::from_micros(500)).ok()?;
        Some((env.src, env.payload.0, env.payload.1))
    }
}

fn worker<P>(
    proc_: P,
    input: P::Value,
    env: WorkerEnv<P::Msg>,
    mut rx: NetReceiver<(u32, Option<P::Msg>)>,
) -> ProcessReturn<P::Value, P::Msg>
where
    P: RoundProcess,
    P::Msg: Send + 'static,
{
    let me = env.me;
    let drain = match env.policy {
        SyncPolicy::Rs { drain } => drain,
        SyncPolicy::Rws => Duration::ZERO,
    };
    let mut core = RoundCore::new(proc_, me, env.n);
    let mut log: Vec<RoundObs<P::Msg>> = Vec::with_capacity(env.horizon as usize);
    let mut mistaken = vec![false; env.n];
    let mut retired: Option<Round> = None;

    let exit = 'run: {
        for r in 1..=env.horizon {
            if retired.is_none() {
                if let Some(s) = env.stall.filter(|s| s.round == r) {
                    // Heartbeat starvation: live, but silent and deaf.
                    env.clock.sleep(s.duration);
                }
                if env.monitor.aborted() {
                    break 'run Exit::GaveUp;
                }
                // Early close: a decided process of a retire-capable
                // algorithm bursts its wires for every remaining round
                // (their content is fixed by the decided state) and
                // stops receiving: the instance is over for it, which
                // is what lets the engine start the next one sooner.
                // The scripted crash still applies mid-burst, so fault
                // plans keep their bite under early close.
                if env.retire && core.process().decision().is_some() {
                    retired = Some(Round::new(r));
                }
            }
            env.board.mark(me);
            // A scripted crash in round r strikes after the send phase,
            // before the process receives or applies trans.
            let crashes = env.crash.filter(|c| c.round == r);
            let sent = core.open(|q| crashes.is_none_or(|c| c.emits(q)));
            for (q, wire) in all_processes(env.n).zip(sent) {
                if let (true, Some(payload)) = (q != me, wire) {
                    env.tx.send(me, q, (r, payload.clone()));
                }
            }
            if crashes.is_some() {
                log.push(core.cut());
                break 'run Exit::Crashed(r);
            }
            if retired.is_some() {
                log.push(core.cut());
                continue;
            }
            let mut io = WorkerIo {
                env: &env,
                rx: &mut rx,
                round: r,
                mistaken: &mut mistaken,
                deadline: env.clock.now() + env.round_timeout,
            };
            if core.collect(&mut io, &env.monitor, drain) != Collected::Ready {
                log.push(core.cut());
                break 'run Exit::GaveUp;
            }
            log.push(core.close());
        }
        Exit::Completed
    };

    let crashed_in = match exit {
        Exit::Crashed(r) => Some(r),
        // A crash scripted beyond the horizon: decide, then crash.
        Exit::Completed => env.crash.map(|c| c.round).filter(|&r| r > env.horizon),
        Exit::GaveUp => None,
    };
    if crashed_in.is_some() {
        env.ledger.mark(me);
        env.board.silence(me);
        env.oracle.report_crash(me);
    } else if matches!(exit, Exit::Completed) {
        // One last beat so laggards don't suspect us while they
        // finish (or wait out our burst wires).
        env.board.mark(me);
    }
    ProcessReturn {
        outcome: ProcessOutcome {
            input,
            decision: core.process().decision(),
            crashed_in: crashed_in.map(Round::new),
        },
        retired,
        pending_seen: core.pending(),
        log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RuntimeBuilder;
    use crate::net::LinkScript;
    use ssp_algos::{FloodSet, FloodSetWs, A1};
    use ssp_model::{check_uniform_consensus, check_uniform_consensus_strong};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Test shorthand: run `runtime` verbatim on the default (virtual)
    /// backend.
    fn run_virtual<V, A>(
        algo: &A,
        config: &InitialConfig<V>,
        t: usize,
        runtime: RuntimeConfig,
    ) -> ThreadedOutcome<V, <A::Process as RoundProcess>::Msg>
    where
        V: Value + Sync,
        A: RoundAlgorithm<V>,
        A::Process: Send + 'static,
        <A::Process as RoundProcess>::Msg: Send + 'static,
    {
        RuntimeBuilder::new(algo, config)
            .t(t)
            .runtime(runtime)
            .run()
            .unwrap()
    }

    #[test]
    fn sharding_config_errors_render_their_diagnosis() {
        assert!(ConfigError::ShardCountZero
            .to_string()
            .contains("at least 1"));
        let oob = ConfigError::CrossShardRateOutOfRange { rate_pm: 1500 };
        assert!(oob.to_string().contains("1500"), "{oob}");
        let single = ConfigError::CrossShardRateWithoutShards { rate_pm: 100 };
        assert!(single.to_string().contains("--shards"), "{single}");
        assert_ne!(oob, single.clone());
    }

    #[test]
    fn failure_free_a1_decides_round_1_on_threads() {
        let config = InitialConfig::new(vec![4u64, 9, 2]);
        let result = run_virtual(&A1, &config, 1, RuntimeConfig::ss_flavor(3, 42));
        check_uniform_consensus_strong(&result.outcome).unwrap();
        assert_eq!(result.outcome.latency_degree(), Some(1));
        assert_eq!(result.pending_messages, 0);
        assert!(!result.synchrony.violated, "bounds held");
        assert_eq!(
            result.net.undelivered, 0,
            "shutdown found nothing in flight"
        );
    }

    #[test]
    fn floodset_with_mid_round_crash_on_threads() {
        let config = InitialConfig::new(vec![0u64, 3, 5]);
        let runtime = RuntimeConfig::ss_flavor(3, 7).with_crash(
            p(0),
            ThreadCrash {
                round: 1,
                after_sends: 2, // reaches itself and p2, not p3
                sends_to: None,
            },
        );
        let result = run_virtual(&FloodSet, &config, 1, runtime);
        check_uniform_consensus_strong(&result.outcome).unwrap();
        assert_eq!(result.outcome.outcome(p(0)).crashed_in, Some(Round::FIRST));
        // p2 saw the 0 in round 1 and floods it in round 2.
        for q in [p(1), p(2)] {
            assert_eq!(result.outcome.outcome(q).decision.as_ref().unwrap().0, 0);
        }
    }

    /// Holds every wire `src` sends in A1's two rounds for 2 s.
    fn slow_sender(src: ProcessId, n: usize) -> LinkScript {
        let mut script = LinkScript::new();
        for q in all_processes(n) {
            for k in 0..2 {
                script.set(src, q, k, Duration::from_secs(2));
            }
        }
        script
    }

    #[test]
    fn a1_uniformity_breaks_on_threads_under_sp_flavor() {
        // The §5.3 scenario in real time: p1 broadcasts with its links
        // slowed to 2s, decides on its own value, crashes; the oracle
        // tells the others quickly; they decide p2's value. Real
        // pending messages, real disagreement.
        let n = 3;
        let config = InitialConfig::new(vec![10u64, 11, 12]);
        let net = NetConfig::bounded(Duration::from_millis(2), 9).with_script(slow_sender(p(0), n));
        let runtime = RuntimeConfig::sp_flavor(n, 9).with_net(net).with_crash(
            p(0),
            ThreadCrash {
                round: 2,
                after_sends: 0,
                sends_to: None,
            },
        );
        let result = run_virtual(&A1, &config, 1, runtime);
        // p1 decided its own value (self-delivery is internal, instant).
        assert_eq!(
            result.outcome.outcome(p(0)).decision.as_ref().map(|d| d.0),
            Some(10)
        );
        // Survivors went with p2's fallback value.
        for q in [p(1), p(2)] {
            assert_eq!(
                result.outcome.outcome(q).decision.as_ref().map(|d| d.0),
                Some(11)
            );
        }
        assert!(check_uniform_consensus(&result.outcome).is_err());
        // RWS claims no Δ: nothing to violate even with 2s links.
        assert!(!result.synchrony.violated);
    }

    #[test]
    fn floodset_ws_survives_the_same_sp_adversary() {
        let n = 3;
        let config = InitialConfig::new(vec![10u64, 11, 12]);
        let net = NetConfig::bounded(Duration::from_millis(2), 9).with_script(slow_sender(p(0), n));
        let runtime = RuntimeConfig::sp_flavor(n, 9).with_net(net).with_crash(
            p(0),
            ThreadCrash {
                round: 2,
                after_sends: 0,
                sends_to: None,
            },
        );
        let result = run_virtual(&FloodSetWs, &config, 1, runtime);
        check_uniform_consensus(&result.outcome).unwrap();
    }

    #[test]
    fn early_close_retires_round_1_deciders() {
        let config = InitialConfig::new(vec![4u64, 9, 2]);
        let runtime = RuntimeConfig::ss_flavor(3, 42).with_early_close(true);
        let result = run_virtual(&A1, &config, 1, runtime);
        check_uniform_consensus_strong(&result.outcome).unwrap();
        assert_eq!(result.outcome.latency_degree(), Some(1));
        // Everyone decided in round 1, burst its round-2 relay, and
        // retired at the start of round 2 — without ever waiting for
        // the relays of the others.
        assert_eq!(
            result.trace.retired,
            vec![Some(Round::new(2)); 3],
            "all three retire at round 2"
        );
        result.trace.validate().unwrap();
    }

    #[test]
    fn early_close_is_a_no_op_for_non_retiring_algorithms() {
        let config = InitialConfig::new(vec![0u64, 3, 5]);
        let runtime = RuntimeConfig::ss_flavor(3, 7).with_early_close(true);
        let result = run_virtual(&FloodSet, &config, 1, runtime);
        check_uniform_consensus_strong(&result.outcome).unwrap();
        assert!(result.trace.retired.iter().all(Option::is_none));
        result.trace.validate().unwrap();
    }

    #[test]
    fn validate_rejects_drain_below_transport_delay() {
        let mut runtime = RuntimeConfig::ss_flavor(3, 1);
        runtime.policy = SyncPolicy::Rs {
            drain: Duration::from_millis(1),
        };
        assert!(matches!(
            runtime.validate(3),
            Err(ConfigError::DrainTooShort { .. })
        ));
    }

    #[test]
    fn validate_rejects_fd_timeout_below_bound() {
        let mut runtime = RuntimeConfig::ss_flavor(3, 1);
        runtime.fd = FdFlavor::Timeout {
            timeout: Duration::from_millis(2),
        };
        assert!(matches!(
            runtime.validate(3),
            Err(ConfigError::FdTimeoutTooShort { .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let runtime = RuntimeConfig::ss_flavor(3, 1);
        assert!(matches!(
            runtime.clone().validate(4),
            Err(ConfigError::CrashSlots { .. })
        ));
        let mut bad = runtime.clone();
        bad.stalls = vec![None; 2];
        assert!(matches!(
            bad.validate(3),
            Err(ConfigError::StallSlots { .. })
        ));
        let mut bad = runtime.clone();
        bad.notify_script = Some(vec![vec![Duration::ZERO; 2]; 3]);
        assert!(matches!(
            bad.validate(3),
            Err(ConfigError::NotifyShape { .. })
        ));
        let mut bad = runtime;
        bad.net.min_delay = Duration::from_millis(5);
        assert!(matches!(
            bad.validate(3),
            Err(ConfigError::DelayWindow { .. })
        ));
    }

    #[test]
    fn checked_run_surfaces_config_errors() {
        let config = InitialConfig::new(vec![4u64, 9, 2]);
        let mut runtime = RuntimeConfig::ss_flavor(3, 1);
        runtime.policy = SyncPolicy::Rs {
            drain: Duration::ZERO,
        };
        let err = RuntimeBuilder::new(&A1, &config)
            .t(1)
            .runtime(runtime)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("drain"), "{err}");
    }

    #[test]
    fn config_errors_display() {
        let e = ConfigError::DrainTooShort {
            drain: Duration::from_millis(1),
            required: Duration::from_millis(50),
        };
        assert!(e.to_string().contains("drain"), "{e}");
        let e = ConfigError::FdTimeoutTooShort {
            timeout: Duration::from_millis(2),
            required: Duration::from_millis(12),
        };
        assert!(e.to_string().contains("timeout"), "{e}");
        let e = ConfigError::NotifyShape { expected: 3 };
        assert!(e.to_string().contains("3"), "{e}");
    }
}
