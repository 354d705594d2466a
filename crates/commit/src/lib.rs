//! Atomic commit on top of the round models — the application §3 uses
//! to motivate the Strongly Dependent Decision problem.
//!
//! * [`spec`] — the non-blocking atomic commit specification with two
//!   non-triviality strengths: the classic one (commit when all-Yes
//!   and failure-free) and the *SDD-boosted* one of §3 (commit when
//!   all-Yes and every vote survived, crashes notwithstanding);
//! * [`vote_flood`] — the flooding commit protocol, in an `RS` variant
//!   that attains the boosted guarantee and an `RWS` variant that must
//!   abort whenever the adversary makes votes pending;
//! * [`workload`] — randomized scenarios measuring the resulting
//!   commit-rate gap (experiment E10): the quantitative content of
//!   "synchronous commit decides Commit more often";
//! * [`live`] — the serving-path driver: callers holding *live* votes
//!   (the sharded engine's shard groups) run one audited vote-flood
//!   exchange and get a typed [`CommitOutcome`] back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod live;
pub mod spec;
pub mod vote_flood;
pub mod workload;

pub use live::{run_live_nbac, CommitOutcome, LiveNbacRun, NbacFaults};
pub use spec::{check_nbac, NbacViolation, NonTriviality};
pub use vote_flood::{votes_all_survive, VoteFlood, VoteFloodProcess, VoteFloodWs, VoteMap};
pub use workload::{
    commit_rate_experiment, sample_scenario, CommitRateReport, CommitScenario, CommitWorkload,
};
