//! Every algorithm of the DSN 2000 paper, executable.
//!
//! Round-based uniform consensus algorithms (for the `RS`/`RWS`
//! executors and emulations of `ssp-rounds`):
//!
//! | Paper | Here | Model | Headline property |
//! |---|---|---|---|
//! | Figure 1 | [`FloodSet`] | `RS` | `t+1` rounds, breaks in `RWS` |
//! | Figure 2 | [`FloodSetWs`] | `RWS` | halt set restores uniformity |
//! | §5.2 | [`COptFloodSet`], [`COptFloodSetWs`] | both | `lat = 1` (unanimity fast path) |
//! | Figure 3 | [`FOptFloodSet`], [`FOptFloodSetWs`] | both | `Lat(·, t) = 1` (t initial crashes) |
//! | Figure 4 | [`A1`] | `RS` | `Λ(A1) = 1`, t = 1; breaks in `RWS` |
//! | \[7\] | [`EarlyDeciding`], [`EarlyDecidingWs`] | `RS`/`RWS` | `min(f+2, t+1)` rounds |
//! | \[6\] (adapted) | [`CtRounds`] | `RWS` | rotating coordinator, `Λ = t + 1` |
//!
//! Step-level algorithms (for the `ssp-sim` executors):
//! [`CtProcess`] is Chandra–Toueg rotating-coordinator consensus with
//! a `◇S`-class detector (the paper's reference \[6\], the flagship of
//! the failure-detector approach), runnable under `ModelKind::Fd` with
//! any detector history.
//!
//! Step-level SDD algorithms (§3, for the `ssp-sim` executors):
//! [`SddSender`], [`SsSddReceiver`] solve SDD in `SS`;
//! [`SpSddReceiver`] and [`PatientSpSddReceiver`] are the doomed `SP`
//! candidates that Theorem 3.1's adversary (in `ssp-lab`) defeats.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod a1;
pub mod c_opt;
pub mod ct;
pub mod early;
pub mod f_opt;
pub mod flood;
pub mod sdd;

pub use a1::{A1BoundsError, A1Msg, A1Process, A1};
pub use c_opt::{COptFloodSet, COptFloodSetWs, COptProcess};
pub use ct::{CtMsg, CtProcess, CtRoundMsg, CtRounds, CtRoundsProcess};
pub use early::{EarlyDeciding, EarlyDecidingWs, EarlyProcess};
pub use f_opt::{FOptFloodSet, FOptFloodSetWs, FOptMsg, FOptProcess};
pub use flood::{FloodProcess, FloodSet, FloodSetWs};
pub use sdd::{PatientSpSddReceiver, SddSender, SpSddReceiver, SsSddReceiver};
