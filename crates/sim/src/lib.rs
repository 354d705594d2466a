//! Deterministic step-level simulator for the models of §2.
//!
//! Executes systems of [`StepAutomaton`]s under three models:
//!
//! * the plain **asynchronous** model (§2.3),
//! * **`SS`** — the synchronous model with process-synchrony bound `Φ`
//!   and message-synchrony bound `Δ` (§2.4), enforced online and
//!   re-checkable post-hoc with [`validate_ss`],
//! * **`SP`** — the asynchronous model augmented with a perfect
//!   failure detector whose detection delays are finite but
//!   adversary-chosen (§2.6),
//!
//! plus two extensions the paper's §1 gestures at:
//!
//! * **`DLS`** — Dwork–Lynch–Stockmeyer partial synchrony: the `SS`
//!   bounds hold only from a global stabilization index
//!   ([`ModelKind::Dls`]);
//! * **`Fd`** — an arbitrary failure detector read from a precomputed
//!   history ([`ModelKind::Fd`]), hosting `◇S`-style algorithms.
//!
//! Scheduling is adversarial: [`FairAdversary`] (round-robin),
//! [`RandomAdversary`] (seeded exploration) and [`ScriptedAdversary`]
//! (exact replay — the run-surgery tool behind Theorem 3.1) all drive
//! the same engine, [`run`], which returns the step-level
//! [`RunLog`](ssp_model::RunLog) it recorded. The §2 validators and
//! the queries of [`steps`] read that log.
//!
//! # Examples
//!
//! ```
//! use ssp_sim::{run, FairAdversary, IdleAutomaton, ModelKind};
//!
//! let automata: Vec<ssp_sim::BoxedAutomaton<u32, bool>> = (0..3)
//!     .map(|_| Box::new(IdleAutomaton::new()) as _)
//!     .collect();
//! let mut adversary = FairAdversary::new(3, 30).with_min_events(6);
//! let result = run(ModelKind::ss(1, 1), automata, &mut adversary, 1_000)?;
//! ssp_sim::validate_ss(&result.log, 1, 1).expect("executor respects SS");
//! # Ok::<(), ssp_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
pub mod automaton;
pub mod exec;
pub mod steps;
pub mod validate;

pub use adversary::{
    Adversary, ChainAdversary, Choice, DeliveryChoice, Event, ExecView, FairAdversary,
    RandomAdversary, ScriptedAdversary,
};
pub use automaton::{BoxedAutomaton, IdleAutomaton, RoundRobinSender, StepAutomaton, StepContext};
pub use exec::{run, run_observed, DetectionDelays, ModelKind, RunOutputs, RunResult, SimError};
pub use steps::{local_view, schedule, step_count};
pub use validate::{validate_basic, validate_perfect_fd, validate_ss, TraceViolation};
