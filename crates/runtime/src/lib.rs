//! Threaded, channel-based runtime: the paper's models in wall-clock
//! form.
//!
//! In process, each process is one OS thread and no other thread runs:
//! a send fixes the wire's arrival time and pushes it into the
//! receiver's crossbeam inbox, which hands it out once that time comes
//! ([`network`]). Two flavours of everything:
//!
//! * the **`SS` flavour** — a bounded-delay network
//!   ([`NetConfig::bounded`]), the timeout-based perfect detector
//!   ([`TimeoutFd`], §3's construction), and a drain anchored at the
//!   suspicion that turns it into certainty about in-flight messages:
//!   rounds satisfy round synchrony;
//! * the **`SP` flavour** — finite but arbitrary link delays (a
//!   [`LinkScript`] pins any wire's delay), an oracle detector
//!   ([`OracleFd`]) that knows *that* a process crashed but nothing
//!   about its in-flight messages, and rounds that close on suspicion:
//!   weak round synchrony, real pending messages.
//!
//! [`RuntimeBuilder`] executes any `ssp-rounds` [`RoundAlgorithm`]
//! unchanged in either flavour; the driver tests reproduce the §5.3
//! `A1` disagreement with actual threads and delayed packets, on the
//! sans-IO [`RoundCore`] that the socket node runs too.
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
//! timing, and every run records a [`RunTrace`] that can be validated
//! and replayed through the round models — see `ssp-lab`'s
//! conformance module for the full bridge.
//!
//! On top of the scripted faults sits the **chaos plane**
//! ([`ChaosConfig`]): seed-deterministic message loss, duplication,
//! and reordering. The in-process network is a delay model of a
//! reliable link, not a second protocol — a lost attempt costs its
//! retransmit timeout, the final attempt always lands, duplicates are
//! suppressed — so round algorithms keep their exactly-once wire
//! contract. On sockets, the same seeded rule ([`chaos`]) drives
//! [`SocketFaults`] inside each peer supervisor, whose seqno/ack/
//! retransmit/dedup is the tree's one reliable-delivery protocol. A
//! **synchrony watchdog**
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
pub mod chaos;
pub mod clock;
pub mod driver;
pub mod fd;
pub mod net;
pub mod plan;
pub mod round;
pub mod seqset;
pub mod socket;
pub mod trace;
pub mod transport;

pub use builder::RuntimeBuilder;
pub use chaos::{splitmix, ChaosConfig, SocketFaults};
pub use clock::{Backend, Clock, Gate, ParseBackendError, Tick};
pub use driver::{
    ConfigError, FdFlavor, RuntimeConfig, Stall, SyncPolicy, ThreadCrash, ThreadedOutcome,
    WatchdogConfig, FD_TIMEOUT_MARGIN, WATCHDOG_MARGIN,
};
pub use fd::{
    CrashLedger, DegradeMode, FdModule, HeartbeatBoard, Oracle, OracleFd, SynchronyEvent,
    SynchronyMonitor, SynchronyReport, TimeoutFd,
};
pub use net::{
    network, LinkScript, NetConfig, NetEnvelope, NetReceiver, NetSender, NetStats, Network,
    MAX_SEND_ATTEMPTS, RTO_INITIAL,
};
pub use plan::{FaultPlan, DELTA_VIOLATION_SEED, SECTION_5_3_SEED};
pub use round::{Collected, RoundCore, RoundIo, Wire};
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
