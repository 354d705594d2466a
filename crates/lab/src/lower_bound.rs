//! The `RWS` lower bound (§5.3, via \[7\]): for `n ≥ 3`, `t = 1`, no
//! uniform consensus algorithm in `RWS` has all correct processes
//! deciding at round 1 of every failure-free run — i.e. `Λ(A) ≥ 2`.
//!
//! One cannot quantify over all programs at runtime, so the bound is
//! demonstrated two ways:
//!
//! 1. **A candidate family.** [`Round1Candidate`] parameterizes the
//!    natural two-round algorithms that decide at round 1 of
//!    failure-free runs: a round-1 trigger (how much of the view must
//!    arrive), a chooser (which value to take), and a round-2 fallback.
//!    [`all_round1_candidates`] enumerates the family — it includes
//!    `A1`-alikes and majority/min/max rules — and
//!    [`refute_round1_candidate`] finds, for each, a concrete `RWS`
//!    run violating uniform consensus. The adversary shape is always
//!    the paper's: a round-1 decider crashes with its messages pending.
//! 2. **The contrapositive.** Every algorithm in this repository that
//!    *is* correct in `RWS` (`FloodSetWS`, `C_OptFloodSetWS`,
//!    `F_OptFloodSetWS`) measurably has `Λ ≥ 2`
//!    ([`crate::metrics::LatencyAggregator::capital_lambda`]).

use core::fmt;

use ssp_model::{Decision, ProcessId, Round, Value};
use ssp_rounds::{RoundAlgorithm, RoundModel, RoundProcess};

use crate::checker::{Counterexample, ValidityMode};
use crate::verifier::Verifier;

/// When a [`Round1Candidate`] decides at round 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// A message arrived from every process (full view).
    FullView,
    /// A message arrived from the given process (as in `A1`, where the
    /// trigger process is `p1`).
    HeardFrom(usize),
}

/// How a value is chosen from the received round values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chooser {
    /// The minimum received value.
    Min,
    /// The maximum received value.
    Max,
    /// The value sent by the given process (own input if missing).
    ProcessValue(usize),
}

impl Chooser {
    fn choose<V: Value>(self, own: &V, received: &[Option<V>]) -> V {
        match self {
            Chooser::Min => received
                .iter()
                .flatten()
                .chain(std::iter::once(own))
                .min()
                .expect("nonempty")
                .clone(),
            Chooser::Max => received
                .iter()
                .flatten()
                .chain(std::iter::once(own))
                .max()
                .expect("nonempty")
                .clone(),
            Chooser::ProcessValue(k) => received
                .get(k)
                .and_then(|m| m.as_ref())
                .unwrap_or(own)
                .clone(),
        }
    }
}

/// A two-round algorithm that decides at round 1 of failure-free runs.
///
/// Round 1: broadcast the input; decide `chooser(view)` if `trigger`
/// fires. Round 2: deciders relay their decision (which is adopted by
/// anyone who hears it); everyone else re-broadcasts its input and
/// falls back to `fallback` over the round-2 values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Round1Candidate {
    /// The round-1 decision trigger.
    pub trigger: Trigger,
    /// The round-1 value chooser.
    pub chooser: Chooser,
    /// The round-2 fallback chooser.
    pub fallback: Chooser,
}

impl fmt::Display for Round1Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "round1[{:?} ⇒ {:?}, else {:?}]",
            self.trigger, self.chooser, self.fallback
        )
    }
}

/// Wire format of [`Round1Candidate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum R1Msg<V> {
    /// A broadcast input value.
    Val(V),
    /// A relayed round-1 decision.
    Relay(V),
}

/// Per-process state of a [`Round1Candidate`].
#[derive(Debug)]
pub struct R1Process<V> {
    spec: Round1Candidate,
    input: V,
    decision: Decision<V>,
}

impl<V: Value> RoundProcess for R1Process<V> {
    type Msg = R1Msg<V>;
    type Value = V;

    fn msgs(&self, round: Round, _dst: ProcessId) -> Option<R1Msg<V>> {
        match round.get() {
            1 => Some(R1Msg::Val(self.input.clone())),
            2 => match self.decision.value() {
                Some(v) => Some(R1Msg::Relay(v.clone())),
                None => Some(R1Msg::Val(self.input.clone())),
            },
            _ => None,
        }
    }

    fn trans(&mut self, round: Round, received: &[Option<R1Msg<V>>]) {
        let values: Vec<Option<V>> = received
            .iter()
            .map(|m| match m {
                Some(R1Msg::Val(v)) => Some(v.clone()),
                _ => None,
            })
            .collect();
        match round.get() {
            1 => {
                let fired = match self.spec.trigger {
                    Trigger::FullView => values.iter().all(Option::is_some),
                    Trigger::HeardFrom(k) => values.get(k).is_some_and(Option::is_some),
                };
                if fired {
                    let v = self.spec.chooser.choose(&self.input, &values);
                    self.decision.decide(v, round).expect("decides once");
                }
            }
            2 if !self.decision.is_decided() => {
                let relayed = received.iter().flatten().find_map(|m| match m {
                    R1Msg::Relay(v) => Some(v.clone()),
                    R1Msg::Val(_) => None,
                });
                let v = relayed.unwrap_or_else(|| self.spec.fallback.choose(&self.input, &values));
                self.decision.decide(v, round).expect("decides once");
            }
            _ => {}
        }
    }

    fn decision(&self) -> Option<(V, Round)> {
        self.decision.clone().into_inner()
    }
}

impl<V: Value> RoundAlgorithm<V> for Round1Candidate {
    type Process = R1Process<V>;

    fn name(&self) -> &str {
        "Round1Candidate"
    }

    fn spawn(&self, _me: ProcessId, _n: usize, t: usize, input: V) -> R1Process<V> {
        assert!(t == 1, "the lower-bound family targets t = 1");
        R1Process {
            spec: *self,
            input,
            decision: Decision::unknown(),
        }
    }

    fn round_horizon(&self, _n: usize, _t: usize) -> u32 {
        2
    }
}

/// Enumerates the candidate family for a system of `n` processes.
#[must_use]
pub fn all_round1_candidates(n: usize) -> Vec<Round1Candidate> {
    let mut choosers = vec![Chooser::Min, Chooser::Max];
    for k in 0..n {
        choosers.push(Chooser::ProcessValue(k));
    }
    let mut triggers = vec![Trigger::FullView];
    for k in 0..n {
        triggers.push(Trigger::HeardFrom(k));
    }
    let mut out = Vec::new();
    for &trigger in &triggers {
        for &chooser in &choosers {
            for &fallback in &choosers {
                out.push(Round1Candidate {
                    trigger,
                    chooser,
                    fallback,
                });
            }
        }
    }
    out
}

/// Verifies that every failure-free binary run of `candidate` decides
/// everywhere at round 1 — the `Λ(A) = 1` premise of the lower bound.
#[must_use]
pub fn decides_round1_when_failure_free(candidate: &Round1Candidate, n: usize) -> bool {
    use ssp_model::config::binary_configs;
    use ssp_rounds::{run_rs, CrashSchedule};
    binary_configs(n).all(|config| {
        let out = run_rs(candidate, &config, 1, &CrashSchedule::none(n));
        out.latency_degree() == Some(1)
    })
}

/// Finds a concrete `RWS` run (n processes, t = 1, binary inputs) on
/// which the candidate violates uniform consensus.
///
/// Returns the counterexample — one exists for *every* member of the
/// family, which is the executable content of `Λ(A) ≥ 2` in `RWS`.
#[must_use]
pub fn refute_round1_candidate(
    candidate: &Round1Candidate,
    n: usize,
) -> Option<Counterexample<u64>> {
    let verification = Verifier::new(candidate)
        .n(n)
        .t(1)
        .domain(&[0u64, 1])
        .mode(ValidityMode::Uniform)
        .model(RoundModel::Rws)
        .run();
    verification.counterexample
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_has_the_expected_size() {
        // triggers (1 + n) × choosers (2 + n)².
        assert_eq!(all_round1_candidates(3).len(), 4 * 25);
    }

    #[test]
    fn family_members_decide_round_1_when_failure_free() {
        for candidate in all_round1_candidates(3) {
            assert!(
                decides_round1_when_failure_free(&candidate, 3),
                "{candidate} must have Λ = 1"
            );
        }
    }

    #[test]
    fn every_family_member_is_refuted_in_rws() {
        // The executable lower bound: each Λ=1 candidate admits an RWS
        // run violating uniform consensus.
        for candidate in all_round1_candidates(3) {
            let cex = refute_round1_candidate(&candidate, 3);
            assert!(cex.is_some(), "{candidate} escaped the adversary");
        }
    }

    #[test]
    fn a1_alike_member_fails_with_the_papers_scenario_shape() {
        // Trigger HeardFrom(0), chooser ProcessValue(0), fallback
        // ProcessValue(1) is essentially A1; its counterexample involves
        // a pending round-1 broadcast.
        let a1_like = Round1Candidate {
            trigger: Trigger::HeardFrom(0),
            chooser: Chooser::ProcessValue(0),
            fallback: Chooser::ProcessValue(1),
        };
        let cex = refute_round1_candidate(&a1_like, 3).expect("must be refuted");
        assert!(
            !cex.pending.is_empty() || cex.schedule.fault_count() > 0,
            "the violation requires adversarial failures"
        );
    }
}
