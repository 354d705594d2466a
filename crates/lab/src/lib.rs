//! The analysis laboratory: everything that *verifies* the paper's
//! claims rather than merely running its algorithms.
//!
//! * [`enumerate`] — bounded model checking: every configuration,
//!   crash schedule and pending choice of a small `RS`/`RWS` space,
//!   swept by [`explore_runs`] for either [`RoundModel`];
//! * [`metrics`] — the latency-degree functionals `lat`, `Lat`, `Λ`
//!   of §5.2, folded over enumerated spaces;
//! * [`checker`] — whole-algorithm verification with counterexample
//!   extraction (uniform consensus over every enumerated run);
//! * [`impossibility`] — the Theorem 3.1 run-surgery adversary that
//!   defeats every SDD candidate in `SP`;
//! * [`lower_bound`] — the §5.3 / \[7\] demonstration that `Λ(A) ≥ 2`
//!   for uniform consensus in `RWS` (`n ≥ 3`, `t = 1`);
//! * [`fd_bridge`] — the one heartbeat detector ([`HeartbeatProcess`]):
//!   with the sound `SS` bound it implements `P`, certified by the
//!   Chandra–Toueg property checkers;
//! * [`dls_bridge`] — the same detector from an optimistic bound
//!   implements `◇P` (not `P`) in the partially synchronous model,
//!   the §1 side-claim;
//! * [`verifier`] — the unified [`Verifier`] builder: exhaustive or
//!   sampled sweeps, symmetry reduction, work-stealing parallelism;
//! * [`symmetry`] — the orbit machinery behind the reduction;
//! * [`sample`] — statistical verification for spaces too large to
//!   enumerate, and the schedule and pending samplers `ssp-commit`'s
//!   workloads draw from;
//! * [`step_explore`] — a step-level model checker over raw §2
//!   adversaries;
//! * [`time_free`] — §2.7's time-freeness as an executable property:
//!   reorder a schedule preserving per-process views and replay;
//! * [`report`] — plain-text tables for the experiment harness;
//! * [`conformance`] — the runtime ↔ model bridge: certify threaded
//!   `ssp-runtime` executions against the round models and sweep
//!   seed-derived fault plans (`ssp runtime-fuzz`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checker;
pub mod conformance;
pub mod dls_bridge;
pub mod enumerate;
pub mod fd_bridge;
pub mod impossibility;
pub mod lower_bound;
pub mod metrics;
pub mod report;
pub mod sample;
pub mod step_explore;
pub mod symmetry;
pub mod time_free;
pub mod verifier;

pub use checker::{Counterexample, ValidityMode, Verification};
pub use conformance::{
    audit_instance, check_threaded_run, fuzz_runtime, shrink_plan, Divergence, FuzzReport,
    InstanceAudit, RunReport, RunVerdict,
};
pub use dls_bridge::run_adaptive_experiment;
pub use enumerate::{crash_schedules, explore_runs, pending_choices, EnumeratedRun};
pub use fd_bridge::{
    run_heartbeat_experiment, run_heartbeat_experiment_seeded, HeartbeatExperiment,
    HeartbeatProcess,
};
pub use impossibility::{refute, RefutationReport, SddCandidate, SddRefutation};
pub use lower_bound::{
    all_round1_candidates, decides_round1_when_failure_free, refute_round1_candidate,
    Round1Candidate,
};
pub use metrics::{message_complexity_rs, worst_case_rs, LatencyAggregator};
pub use report::Table;
pub use sample::{SampleSpace, SampleVerification};
pub use ssp_rounds::RoundModel;
pub use step_explore::{explore_step_runs, StepSpace};
pub use time_free::reorder_preserving_views;
pub use verifier::{Symmetry, Verifier};
