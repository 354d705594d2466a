//! Threaded, channel-based runtime: the paper's models in wall-clock
//! form.
//!
//! One OS thread per process, crossbeam channels for links, and two
//! flavours of everything:
//!
//! * the **`SS` flavour** — a bounded-delay network
//!   ([`NetConfig::bounded`]), the timeout-based perfect detector
//!   ([`TimeoutFd`], §3's construction), and a drain period that turns
//!   suspicion into certainty about in-flight messages: rounds satisfy
//!   round synchrony;
//! * the **`SP` flavour** — finite but arbitrary link delays (a
//!   [`LinkScript`] pins any wire's delay), an oracle detector
//!   ([`OracleFd`]) that knows *that* a process crashed but nothing
//!   about its in-flight messages, and rounds that close on suspicion:
//!   weak round synchrony, real pending messages.
//!
//! [`RuntimeBuilder`] executes any `ssp-rounds` [`RoundAlgorithm`]
//! unchanged in either flavour; the driver tests reproduce the §5.3
//! `A1` disagreement with actual threads and delayed packets.
//!
//! Time itself is pluggable ([`Clock`], [`Backend`]): the **real**
//! backend sleeps on the OS clock, while the **virtual** backend runs
//! the same threaded code over a discrete-event timeline that jumps
//! straight to the next deadline whenever every thread is blocked —
//! seed sweeps run thousands of times faster and, per the backend
//! conformance suite, emit byte-identical `RunLog`s.
//!
//! Determinism comes from the fault-injection plane: a seed-derived
//! [`FaultPlan`] scripts crashes (including mid-broadcast cut-offs),
//! per-link delivery delays ([`LinkScript`]) and oracle suspicion
//! timing, and every run records a [`RunTrace`] that can be replayed
//! through the round models and validated by `ssp-sim`'s checkers —
//! see `ssp-lab`'s conformance module for the full bridge.
//!
//! On top of the scripted faults sits the **chaos plane**
//! ([`ChaosConfig`]): seed-deterministic message loss, duplication,
//! and reordering, masked by a reliable-delivery layer (acks +
//! capped-backoff retransmits + dedup) so round algorithms keep their
//! exactly-once wire contract. A **synchrony watchdog**
//! ([`SynchronyMonitor`]) checks the claimed delay bound Δ at runtime
//! and, on violation, either flags the run, downgrades it to `RWS`
//! semantics, or aborts it ([`DegradeMode`]) — the paper's §3 caveat
//! ("the detector is perfect only while the bounds hold") made
//! executable.
//!
//! [`RoundAlgorithm`]: ssp_rounds::RoundAlgorithm

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod chaos_proxy;
pub mod clock;
pub mod driver;
pub mod fd;
pub mod net;
pub mod plan;
pub mod seqset;
pub mod socket;
pub mod trace;
pub mod transport;

pub use builder::RuntimeBuilder;
pub use chaos_proxy::{ChaosProxy, ChaosProxyConfig, LinkSpec};
pub use clock::{Backend, Clock, Gate, ParseBackendError, Tick};
pub use driver::{
    ConfigError, FdFlavor, RoundWire, RuntimeConfig, Stall, SyncPolicy, ThreadCrash,
    ThreadedOutcome, WatchdogConfig, FD_TIMEOUT_MARGIN, WATCHDOG_MARGIN,
};
pub use fd::{
    CrashLedger, DegradeMode, FdModule, HeartbeatBoard, LastSeenBoard, Oracle, OracleFd,
    StalenessFd, SynchronyEvent, SynchronyMonitor, SynchronyReport, TimeoutFd,
};
pub use net::{
    spawn_network, spawn_network_watched, splitmix, ChaosConfig, LinkScript, NetConfig,
    NetEnvelope, NetHandle, NetReceiver, NetSender, NetStats, MAX_SEND_ATTEMPTS, RTO_INITIAL,
};
pub use plan::{FaultPlan, DELTA_VIOLATION_SEED, SECTION_5_3_SEED};
pub use seqset::SeqSet;
pub use socket::{
    FrameReader, GatewayListener, GatewaySubmission, SocketConfig, SocketMsg, SocketNet,
    FLUSH_STALE_CUT, FLUSH_TIMEOUT,
};
/// The round model under its old runtime-local name, kept only because
/// the benchmark package (`perfbench/`, frozen between benchmark
/// changes) imports it; everything else names [`ssp_rounds::RoundModel`].
pub use ssp_rounds::RoundModel as PlanModel;
pub use trace::{RoundObs, RunTrace, RunTraceError};
pub use transport::{
    backoff_delay, Frame, GatewayStats, TransportError, TransportStats, BACKOFF_BASE, BACKOFF_CAP,
    BACKOFF_JITTER_MAX, MAX_FRAME_LEN,
};
