//! The round-based computational models `RS` and `RWS` (§4).
//!
//! * [`RoundProcess`] / [`RoundAlgorithm`] — the `states`/`msgs`/`trans`
//!   algorithm interface of §4.1;
//! * [`run_rs`] — the synchronous round model, whose *round synchrony*
//!   property (missing message ⇒ sender failed before sending it)
//!   holds by construction;
//! * [`run_rws`] — the weakly synchronous round model, where an
//!   adversary may additionally withhold *pending* messages subject to
//!   weak round synchrony (Lemma 4.1), validated by
//!   [`validate_pending`];
//! * [`emulation`] — the §4.1/§4.2 emulations of `RS` on the `SS` step
//!   model and of `RWS` on the `SP` step model, runnable on
//!   `ssp-sim`'s executors.
//!
//! With an empty [`PendingChoice`], `RWS` coincides with `RS`; the
//! extra adversarial freedom of pending messages is exactly what makes
//! uniform consensus strictly slower in `RWS` (§5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algorithm;
pub mod emulation;
pub mod exec;
pub mod schedule;

pub use algorithm::{RoundAlgorithm, RoundMsgs, RoundProcess, SymmetricAlgorithm, ValueSymmetric};
pub use emulation::{cumulative_round_budget, round_of_step, EmuMsg, RsOnSs, RwsOnSp};
pub use exec::{run_rs, run_rs_observed, run_rws, run_rws_observed, try_run_rs, ScheduleError};
pub use schedule::{
    from_record, to_record, validate_pending, CrashSchedule, PendingChoice, PendingError,
    RoundCrash,
};
