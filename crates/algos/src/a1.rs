//! The `A1` algorithm (Figure 4): uniform consensus in two rounds for
//! `t = 1`, deciding at **round 1** in every failure-free run.
//!
//! Round 1: `p1` broadcasts its value; whoever receives it decides it
//! immediately. Round 2: deciders relay `(p1, w)`; if `p1` crashed
//! before reaching anyone, `p2` broadcasts its own value and everyone
//! decides that instead.
//!
//! `Λ(A1) = 1` in `RS` (Theorem 5.2). In `RWS` the same algorithm
//! breaks: `p1` may decide on its own broadcast, crash, and have every
//! copy withheld as pending — `p1` decides `v1` while everyone else
//! decides `v2` (§5.3). The exhaustive checker in `ssp-lab` finds a
//! second, subtler anomaly as well: a `p1` that survives into round 2
//! and *partially* relays its decision can split even the correct
//! processes, so `A1`-in-`RWS` fails plain consensus too. Either way,
//! every anomaly requires `p1` to be faulty — in `RS`, where pending
//! messages do not exist, Theorem 5.2 stands.

use ssp_model::{Decision, ProcessId, Round, Value};
use ssp_rounds::{RoundAlgorithm, RoundProcess, ValueSymmetric};

/// Wire format of `A1`: a raw value or a relayed decision `(p1, w)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum A1Msg<V> {
    /// A proposer's value (`p1`'s at round 1, `p2`'s at round 2).
    Val(V),
    /// Relay of the round-1 decision, the paper's `(p1, w)` message.
    Relay(V),
}

/// The `A1` algorithm of Figure 4. Requires `t = 1` and `n ≥ 2`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct A1;

/// Why `A1` cannot run on a given `(n, t)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum A1BoundsError {
    /// `A1` is the one-crash algorithm of §5.3: `t` must be 1.
    Resilience {
        /// The requested resilience.
        t: usize,
    },
    /// `A1` needs `p2` as the round-2 fallback proposer: `n ≥ 2`.
    TooFewProcesses {
        /// The requested process count.
        n: usize,
    },
}

impl core::fmt::Display for A1BoundsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            A1BoundsError::Resilience { t } => {
                write!(
                    f,
                    "A1 tolerates exactly one crash: needs t = 1, got t = {t}"
                )
            }
            A1BoundsError::TooFewProcesses { n } => write!(
                f,
                "A1 needs p2 as the round-2 fallback proposer: needs n ≥ 2, got n = {n}"
            ),
        }
    }
}

impl std::error::Error for A1BoundsError {}

impl A1 {
    /// Checks that `A1` can run on `n` processes tolerating `t`
    /// crashes — the condition under which [`RoundAlgorithm::spawn`]
    /// does not panic.
    ///
    /// # Errors
    ///
    /// [`A1BoundsError`] unless `t == 1` and `n ≥ 2`.
    pub fn check(n: usize, t: usize) -> Result<(), A1BoundsError> {
        if t != 1 {
            Err(A1BoundsError::Resilience { t })
        } else if n < 2 {
            Err(A1BoundsError::TooFewProcesses { n })
        } else {
            Ok(())
        }
    }
}

/// Per-process state of `A1`: the `w` register, `decided` flag and
/// decision register of Figure 4.
#[derive(Debug)]
pub struct A1Process<V> {
    me: ProcessId,
    w: V,
    decision: Decision<V>,
}

impl<V: Value> RoundProcess for A1Process<V> {
    type Msg = A1Msg<V>;
    type Value = V;

    fn msgs(&self, round: Round, _dst: ProcessId) -> Option<A1Msg<V>> {
        match round.get() {
            1 if self.me == ProcessId::new(0) => Some(A1Msg::Val(self.w.clone())),
            2 => {
                if let Some(v) = self.decision.value() {
                    Some(A1Msg::Relay(v.clone()))
                } else if self.me == ProcessId::new(1) {
                    Some(A1Msg::Val(self.w.clone()))
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn trans(&mut self, round: Round, received: &[Option<A1Msg<V>>]) {
        match round.get() {
            1 => {
                if let Some(A1Msg::Val(v)) = &received[0] {
                    self.w = v.clone();
                    self.decision
                        .decide(v.clone(), round)
                        .expect("decides once");
                }
            }
            2 if !self.decision.is_decided() => {
                let relayed = received.iter().flatten().find_map(|m| match m {
                    A1Msg::Relay(v) => Some(v.clone()),
                    A1Msg::Val(_) => None,
                });
                if let Some(v) = relayed {
                    self.decision.decide(v, round).expect("decides once");
                } else if let Some(A1Msg::Val(v)) = &received[1] {
                    // "a message x2 = w2 arrives from p2"
                    self.decision
                        .decide(v.clone(), round)
                        .expect("decides once");
                }
            }
            _ => {}
        }
    }

    fn decision(&self) -> Option<(V, Round)> {
        self.decision.clone().into_inner()
    }
}

impl<V: Value> RoundAlgorithm<V> for A1 {
    type Process = A1Process<V>;

    fn name(&self) -> &str {
        "A1"
    }

    /// # Panics
    ///
    /// Panics unless `t == 1` and `n ≥ 2` ([`A1::check`]) — `A1` is
    /// specifically the one-crash algorithm of §5.3.
    fn spawn(&self, me: ProcessId, n: usize, t: usize, input: V) -> A1Process<V> {
        if let Err(e) = A1::check(n, t) {
            panic!("{e}");
        }
        A1Process {
            me,
            w: input,
            decision: Decision::unknown(),
        }
    }

    fn round_horizon(&self, _n: usize, _t: usize) -> u32 {
        2
    }

    /// A decided `A1` process owes the protocol nothing but its
    /// round-2 `Relay(w)`, which depends only on the (immutable)
    /// decision register: round-2 `trans` is a no-op once decided, so
    /// bursting the relay and retiring is indistinguishable from
    /// waiting the round out. This is the fast path behind `Λ(A1) = 1`
    /// paying off in instance throughput: failure-free `RS` instances
    /// cost one received round instead of two.
    fn retires_after_decision(&self) -> bool {
        true
    }
}

/// `A1` forwards and stores values without ever inspecting them, so it
/// commutes with every (in particular every monotone) relabeling of
/// the domain. It is **not** [`ssp_rounds::SymmetricAlgorithm`]: the
/// roles of `p_1` (round-1 proposer) and `p_2` (round-2 fallback) are
/// hard-coded, so process permutations change its behaviour.
impl<V: Value> ValueSymmetric<V> for A1 {}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_model::{
        check_uniform_consensus, check_uniform_consensus_strong, ConsensusViolation, InitialConfig,
        ProcessSet,
    };
    use ssp_rounds::{run_rs, run_rws, CrashSchedule, PendingChoice, RoundCrash};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn failure_free_run_decides_everywhere_at_round_1() {
        let config = InitialConfig::new(vec![4u64, 9, 2]);
        let out = run_rs(&A1, &config, 1, &CrashSchedule::none(3));
        check_uniform_consensus_strong(&out).unwrap();
        assert_eq!(out.latency_degree(), Some(1), "Λ(A1) = 1 in RS");
        for (_, o) in out.iter() {
            assert_eq!(o.decision, Some((4, Round::FIRST)), "everyone takes v1");
        }
    }

    #[test]
    fn partial_broadcast_crash_recovers_via_relay() {
        // Theorem 5.2 case 2(a): p1 reaches only p3 before crashing.
        let config = InitialConfig::new(vec![4u64, 9, 2]);
        let mut schedule = CrashSchedule::none(3);
        schedule.crash(
            p(0),
            RoundCrash {
                round: Round::FIRST,
                sends_to: ProcessSet::singleton(p(2)),
            },
        );
        let out = run_rs(&A1, &config, 1, &schedule);
        check_uniform_consensus_strong(&out).unwrap();
        assert_eq!(out.outcome(p(2)).decision, Some((4, Round::FIRST)));
        assert_eq!(out.outcome(p(1)).decision, Some((4, Round::new(2))));
    }

    #[test]
    fn silent_crash_falls_back_to_p2() {
        // Theorem 5.2 case 2(b): p1 reaches nobody.
        let config = InitialConfig::new(vec![4u64, 9, 2]);
        let mut schedule = CrashSchedule::none(3);
        schedule.crash(
            p(0),
            RoundCrash {
                round: Round::FIRST,
                sends_to: ProcessSet::empty(),
            },
        );
        let out = run_rs(&A1, &config, 1, &schedule);
        check_uniform_consensus_strong(&out).unwrap();
        for q in [p(1), p(2)] {
            assert_eq!(out.outcome(q).decision, Some((9, Round::new(2))));
        }
    }

    /// §5.3's `RWS` scenario: p1 broadcasts, decides on its own copy,
    /// crashes, and every copy is pending.
    fn rws_killer(n: usize) -> (InitialConfig<u64>, CrashSchedule, PendingChoice) {
        let config = InitialConfig::new((0..n as u64).map(|i| 10 + i).collect());
        let mut schedule = CrashSchedule::none(n);
        schedule.crash(
            p(0),
            RoundCrash {
                round: Round::new(2),
                sends_to: ProcessSet::empty(),
            },
        );
        let mut pending = PendingChoice::none();
        for i in 1..n {
            pending.withhold(Round::FIRST, p(0), p(i));
        }
        (config, schedule, pending)
    }

    #[test]
    fn a1_violates_uniform_agreement_in_rws() {
        let (config, schedule, pending) = rws_killer(3);
        let out = run_rws(&A1, &config, 1, &schedule, &pending).unwrap();
        // p1 decided its own value at round 1, then crashed.
        assert_eq!(out.outcome(p(0)).decision, Some((10, Round::FIRST)));
        // The survivors all decided p2's value at round 2.
        for i in 1..3 {
            assert_eq!(out.outcome(p(i)).decision, Some((11, Round::new(2))));
        }
        assert!(matches!(
            check_uniform_consensus(&out),
            Err(ConsensusViolation::UniformAgreement { .. })
        ));
    }

    #[test]
    fn rws_killer_scenario_splits_only_the_faulty_p1() {
        // In the specific §5.3 scenario the anomaly involves only the
        // *faulty* p1: the correct processes all take p2's fallback
        // value. (In other RWS runs a partial round-2 relay can even
        // split correct processes — see tests/paper_claims.rs.)
        let (config, schedule, pending) = rws_killer(4);
        let out = run_rws(&A1, &config, 1, &schedule, &pending).unwrap();
        let correct_values: Vec<u64> = out
            .iter()
            .filter(|(_, o)| o.is_correct())
            .map(|(_, o)| o.decision.as_ref().unwrap().0)
            .collect();
        assert!(correct_values.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn relay_pending_is_covered_by_p2_fallback() {
        // p1 reaches only p2 then crashes in round 2; p2's relay to p3
        // is itself… not pendable (p2 is correct). Instead: p1's round-1
        // message to p3 pending. p2 relays at round 2, so p3 still
        // learns v1.
        let config = InitialConfig::new(vec![4u64, 9, 2]);
        let mut schedule = CrashSchedule::none(3);
        schedule.crash(
            p(0),
            RoundCrash {
                round: Round::new(2),
                sends_to: ProcessSet::empty(),
            },
        );
        let mut pending = PendingChoice::none();
        pending.withhold(Round::FIRST, p(0), p(2));
        let out = run_rws(&A1, &config, 1, &schedule, &pending).unwrap();
        check_uniform_consensus_strong(&out).unwrap();
        assert_eq!(out.outcome(p(2)).decision, Some((4, Round::new(2))));
    }

    #[test]
    #[should_panic(expected = "exactly one crash")]
    fn a1_rejects_t_other_than_1() {
        let _ = RoundAlgorithm::<u64>::spawn(&A1, p(0), 3, 2, 1);
    }

    #[test]
    fn check_types_the_spawn_preconditions() {
        assert_eq!(A1::check(4, 1), Ok(()));
        assert_eq!(A1::check(4, 2), Err(A1BoundsError::Resilience { t: 2 }));
        assert_eq!(A1::check(4, 0), Err(A1BoundsError::Resilience { t: 0 }));
        assert_eq!(
            A1::check(1, 1),
            Err(A1BoundsError::TooFewProcesses { n: 1 })
        );
    }
}
