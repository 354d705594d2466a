//! Executors for the `RS` and `RWS` round-based models (§4).
//!
//! Both executors run an algorithm for its declared round horizon
//! under a [`CrashSchedule`]; the `RWS` executor additionally applies a
//! [`PendingChoice`] of withheld messages, validated against weak round
//! synchrony. With an empty pending choice the two coincide — which is
//! precisely why every `RWS` algorithm also works in `RS` (§4.3), and
//! is asserted by tests here.
//!
//! Every executor emits the canonical event IR through an
//! [`Observer`]: the plain entry points use
//! [`NullObserver`](ssp_model::NullObserver) (the tracing
//! monomorphizes away entirely), and the `_observed` variants accept
//! any sink — a [`RunLogObserver`](ssp_model::RunLogObserver) keeps
//! the whole [`RunLog`](ssp_model::RunLog), whose lockstep `Close`
//! events carry each round's delivery matrix.

use core::fmt;

use ssp_model::events::{DeliveryMatrix, NullObserver, Observer, RunEvent};
use ssp_model::{
    process::all_processes, ConsensusOutcome, InitialConfig, ProcessId, ProcessOutcome, ProcessSet,
    Round, Value,
};

use crate::algorithm::{RoundAlgorithm, RoundProcess};
use crate::schedule::{validate_pending, CrashSchedule, PendingChoice, PendingError};

/// Why a [`CrashSchedule`] cannot drive a run of a given algorithm —
/// the typed form of the panics documented on [`run_rs`], returned by
/// [`try_run_rs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The schedule and the configuration disagree on `n`.
    SizeMismatch {
        /// The configuration's process count.
        expected: usize,
        /// The schedule's process count.
        got: usize,
    },
    /// The schedule crashes more processes than the fault bound allows.
    TooManyCrashes {
        /// Crashes in the schedule.
        faults: usize,
        /// The fault bound `t`.
        bound: usize,
    },
    /// A crash is scheduled after round `horizon + 1`, where it is
    /// invisible (the process completes every executed round and its
    /// messages can never legally be pending).
    CrashBeyondHorizon {
        /// The crashing process.
        process: ProcessId,
        /// Its scheduled crash round.
        round: Round,
        /// The latest visible crash round, `horizon + 1`.
        limit: u32,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::SizeMismatch { expected, got } => write!(
                f,
                "schedule size must match configuration: n={expected}, schedule has {got}"
            ),
            ScheduleError::TooManyCrashes { faults, bound } => write!(
                f,
                "crash schedule exceeds the fault bound t={bound} ({faults} crashes)"
            ),
            ScheduleError::CrashBeyondHorizon {
                process,
                round,
                limit,
            } => write!(
                f,
                "{process} crashes at {round} beyond round horizon+1 = {limit}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

fn check_schedule(
    n: usize,
    t: usize,
    horizon: u32,
    schedule: &CrashSchedule,
) -> Result<(), ScheduleError> {
    if schedule.n() != n {
        return Err(ScheduleError::SizeMismatch {
            expected: n,
            got: schedule.n(),
        });
    }
    if schedule.fault_count() > t {
        return Err(ScheduleError::TooManyCrashes {
            faults: schedule.fault_count(),
            bound: t,
        });
    }
    // Crashes in round `horizon + 1` are meaningful even though that
    // round is never executed: the process completes every executed
    // round (so it may decide!) yet is faulty, and its round-`horizon`
    // messages may legally be pending (Lemma 4.1 allows withholding a
    // round-r message when its sender crashes by round r+1). This is
    // exactly the shape of the FloodSet/A1 disagreement scenarios.
    for p in all_processes(n) {
        if let Some(c) = schedule.crash_of(p) {
            if c.round.get() > horizon + 1 {
                return Err(ScheduleError::CrashBeyondHorizon {
                    process: p,
                    round: c.round,
                    limit: horizon + 1,
                });
            }
        }
    }
    Ok(())
}

/// Runs `algo` in the synchronous round model `RS`.
///
/// Each round has a send phase (crashing processes deliver only to
/// their `sends_to` subset) and a transition phase applied to every
/// process that survives the round. The *round synchrony* property
/// holds by construction: a missing message means its sender failed
/// before sending it.
///
/// # Panics
///
/// Panics if `config`, `schedule` sizes disagree, or if a scheduled
/// crash round exceeds the algorithm's round horizon (such a crash is
/// invisible; make the process correct instead). Use [`try_run_rs`]
/// for the non-panicking, [`ScheduleError`]-returning form.
///
/// # Examples
///
/// ```
/// use ssp_rounds::{run_rs, CrashSchedule};
/// use ssp_model::InitialConfig;
///
/// // FloodSet lives in ssp-algos; here we only show the call shape
/// // with any RoundAlgorithm implementation `algo`:
/// # fn demo<A: ssp_rounds::RoundAlgorithm<u64>>(algo: &A) {
/// let config = InitialConfig::new(vec![0u64, 1, 1]);
/// let outcome = run_rs(algo, &config, 1, &CrashSchedule::none(3));
/// # let _ = outcome;
/// # }
/// ```
pub fn run_rs<V: Value, A: RoundAlgorithm<V>>(
    algo: &A,
    config: &InitialConfig<V>,
    t: usize,
    schedule: &CrashSchedule,
) -> ConsensusOutcome<V> {
    try_run_rs(algo, config, t, schedule).unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`run_rs`], but returns a typed [`ScheduleError`] instead of
/// panicking on an unusable crash schedule.
///
/// # Errors
///
/// Returns a [`ScheduleError`] if the schedule's size disagrees with
/// the configuration, crashes more than `t` processes, or schedules a
/// crash beyond round `horizon + 1` (where it would be invisible).
pub fn try_run_rs<V: Value, A: RoundAlgorithm<V>>(
    algo: &A,
    config: &InitialConfig<V>,
    t: usize,
    schedule: &CrashSchedule,
) -> Result<ConsensusOutcome<V>, ScheduleError> {
    run_rounds(
        algo,
        config,
        t,
        schedule,
        &PendingChoice::none(),
        &mut NullObserver,
    )
}

/// Like [`try_run_rs`], emitting the canonical event stream into any
/// [`Observer`] sink.
///
/// # Errors
///
/// As for [`try_run_rs`].
pub fn run_rs_observed<V, A, O>(
    algo: &A,
    config: &InitialConfig<V>,
    t: usize,
    schedule: &CrashSchedule,
    obs: &mut O,
) -> Result<ConsensusOutcome<V>, ScheduleError>
where
    V: Value,
    A: RoundAlgorithm<V>,
    O: Observer<<A::Process as RoundProcess>::Msg>,
{
    run_rounds(algo, config, t, schedule, &PendingChoice::none(), obs)
}

/// Runs `algo` in the weakly synchronous round model `RWS`.
///
/// Like [`run_rs`], but the messages named by `pending` are withheld
/// from their receivers. The choice must satisfy weak round synchrony
/// (Lemma 4.1): a round-`r` message may be pending only if its sender
/// crashes by the end of round `r+1`.
///
/// # Errors
///
/// Returns a [`PendingError`] if the pending choice is not realizable.
///
/// # Panics
///
/// As for [`run_rs`].
pub fn run_rws<V: Value, A: RoundAlgorithm<V>>(
    algo: &A,
    config: &InitialConfig<V>,
    t: usize,
    schedule: &CrashSchedule,
    pending: &PendingChoice,
) -> Result<ConsensusOutcome<V>, PendingError> {
    run_rws_observed(algo, config, t, schedule, pending, &mut NullObserver)
}

/// Like [`run_rws`], emitting the canonical event stream into any
/// [`Observer`] sink.
///
/// # Errors
///
/// As for [`run_rws`].
///
/// # Panics
///
/// As for [`run_rs`].
pub fn run_rws_observed<V, A, O>(
    algo: &A,
    config: &InitialConfig<V>,
    t: usize,
    schedule: &CrashSchedule,
    pending: &PendingChoice,
    obs: &mut O,
) -> Result<ConsensusOutcome<V>, PendingError>
where
    V: Value,
    A: RoundAlgorithm<V>,
    O: Observer<<A::Process as RoundProcess>::Msg>,
{
    validate_pending(schedule, pending)?;
    Ok(run_rounds(algo, config, t, schedule, pending, obs).unwrap_or_else(|e| panic!("{e}")))
}

/// The single round-model engine: runs `algo` under `schedule` and
/// `pending`, emitting the canonical event stream into `obs`.
///
/// Per executed round `r`, in canonical order: `Crash` events for
/// round-`r` crashes (ascending process), `Deliver` events
/// receiver-major, `Withhold` events receiver-major for wires the
/// pending choice suppressed, one lockstep `Close` carrying the heard
/// matrix, then `Decide` events for processes deciding in `r`. Crashes
/// in round `horizon + 1` follow after the last round. All event
/// construction is guarded by [`Observer::active`], so a
/// [`NullObserver`] run pays nothing.
fn run_rounds<V, A, O>(
    algo: &A,
    config: &InitialConfig<V>,
    t: usize,
    schedule: &CrashSchedule,
    pending: &PendingChoice,
    obs: &mut O,
) -> Result<ConsensusOutcome<V>, ScheduleError>
where
    V: Value,
    A: RoundAlgorithm<V>,
    O: Observer<<A::Process as RoundProcess>::Msg>,
{
    let n = config.n();
    let horizon = algo.round_horizon(n, t);
    check_schedule(n, t, horizon, schedule)?;

    let mut procs: Vec<A::Process> = all_processes(n)
        .map(|p| algo.spawn(p, n, t, config.input(p).clone()))
        .collect();
    let mut decided = vec![false; n];

    for r in (1..=horizon).map(Round::new) {
        if obs.active() {
            for p in all_processes(n) {
                if schedule.crash_of(p).map(|c| c.round) == Some(r) {
                    obs.record(RunEvent::Crash {
                        process: p,
                        round: Some(r),
                        time: None,
                    });
                }
            }
        }
        // Send phase: deliveries[q][p] = message from p to q this round.
        let mut deliveries: Vec<Vec<Option<<A::Process as RoundProcess>::Msg>>> =
            vec![vec![None; n]; n];
        let mut withheld: Vec<ProcessSet> = Vec::new();
        if obs.active() {
            withheld = vec![ProcessSet::empty(); n];
        }
        for p in all_processes(n) {
            if !schedule.sends_in(p, r) {
                continue;
            }
            for q in all_processes(n) {
                // A process that does not survive the round receives
                // nothing in it (it crashed before its receive phase).
                if !schedule.is_alive_through(q, r) {
                    continue;
                }
                if !schedule.emits(p, r, q) {
                    continue;
                }
                if pending.is_withheld(r, p, q) {
                    if obs.active() {
                        withheld[q.index()].insert(p);
                    }
                    continue;
                }
                deliveries[q.index()][p.index()] = procs[p.index()].msgs(r, q);
            }
        }
        if obs.active() {
            let mut heard = DeliveryMatrix::empty(n);
            for q in all_processes(n) {
                for p in all_processes(n) {
                    if let Some(m) = &deliveries[q.index()][p.index()] {
                        heard.insert(q, p);
                        obs.record(RunEvent::Deliver {
                            src: p,
                            dst: q,
                            round: Some(r),
                            sent_at: None,
                            payload: Some(m.clone()),
                        });
                    }
                }
            }
            for q in all_processes(n) {
                for p in withheld[q.index()].iter() {
                    obs.record(RunEvent::Withhold {
                        round: r,
                        src: p,
                        dst: q,
                    });
                }
            }
            obs.record(RunEvent::Close {
                round: Some(r),
                process: None,
                stamp: None,
                heard,
            });
        }
        // Transition phase: only processes surviving the round.
        for (q, delivered) in deliveries.into_iter().enumerate() {
            let q = ProcessId::new(q);
            if schedule.is_alive_through(q, r) {
                procs[q.index()].trans(r, &delivered);
                if obs.active() && !decided[q.index()] {
                    if let Some((_, dr)) = procs[q.index()].decision() {
                        decided[q.index()] = true;
                        obs.record(RunEvent::Decide {
                            process: q,
                            round: Some(dr),
                        });
                    }
                }
            }
        }
    }
    if obs.active() {
        for p in all_processes(n) {
            if let Some(c) = schedule.crash_of(p) {
                if c.round.get() == horizon + 1 {
                    obs.record(RunEvent::Crash {
                        process: p,
                        round: Some(c.round),
                        time: None,
                    });
                }
            }
        }
    }

    let outcomes = all_processes(n)
        .map(|p| ProcessOutcome {
            input: config.input(p).clone(),
            decision: procs[p.index()].decision(),
            crashed_in: schedule.crash_of(p).map(|c| c.round),
        })
        .collect();
    Ok(ConsensusOutcome::new(outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::RoundCrash;
    use ssp_model::events::RunLogObserver;
    use ssp_model::{Decision, ProcessId, ProcessSet};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// A 2-round echo algorithm for testing the executors: round 1
    /// everyone broadcasts its input; round 2 everyone decides the
    /// minimum value heard (including its own).
    #[derive(Debug, Clone)]
    struct MinEcho;

    #[derive(Debug)]
    struct MinEchoProcess {
        input: u64,
        best: u64,
        decision: Decision<u64>,
    }

    impl RoundProcess for MinEchoProcess {
        type Msg = u64;
        type Value = u64;

        fn msgs(&self, round: Round, _dst: ProcessId) -> Option<u64> {
            (round == Round::FIRST).then_some(self.input)
        }

        fn trans(&mut self, round: Round, received: &[Option<u64>]) {
            for v in received.iter().flatten() {
                self.best = self.best.min(*v);
            }
            if round == Round::new(2) {
                let v = self.best;
                self.decision.decide(v, round).expect("single decision");
            }
        }

        fn decision(&self) -> Option<(u64, Round)> {
            self.decision.clone().into_inner()
        }
    }

    impl RoundAlgorithm<u64> for MinEcho {
        type Process = MinEchoProcess;

        fn name(&self) -> &str {
            "MinEcho"
        }

        fn spawn(&self, _me: ProcessId, _n: usize, _t: usize, input: u64) -> MinEchoProcess {
            MinEchoProcess {
                input,
                best: input,
                decision: Decision::unknown(),
            }
        }

        fn round_horizon(&self, _n: usize, _t: usize) -> u32 {
            2
        }
    }

    #[test]
    fn failure_free_rs_floods_minimum() {
        let config = InitialConfig::new(vec![5u64, 3, 9]);
        let out = run_rs(&MinEcho, &config, 1, &CrashSchedule::none(3));
        for (_, o) in out.iter() {
            assert_eq!(o.decision.as_ref().map(|(v, _)| *v), Some(3));
        }
        assert_eq!(out.latency_degree(), Some(2));
    }

    #[test]
    fn crash_with_partial_send_partitions_knowledge() {
        let config = InitialConfig::new(vec![1u64, 5, 9]);
        let mut schedule = CrashSchedule::none(3);
        // p1 (input 1, the minimum) crashes in round 1, reaching only p2.
        schedule.crash(
            p(0),
            RoundCrash {
                round: Round::FIRST,
                sends_to: ProcessSet::singleton(p(1)),
            },
        );
        let out = run_rs(&MinEcho, &config, 1, &schedule);
        // p1 never decides (crashed before its trans).
        assert_eq!(out.outcome(p(0)).decision, None);
        assert_eq!(out.outcome(p(0)).crashed_in, Some(Round::FIRST));
        // p2 saw 1; p3 did not. (MinEcho is *not* a consensus algorithm:
        // no relay round — this is exactly why FloodSet needs t+1 rounds.)
        assert_eq!(out.outcome(p(1)).decision.as_ref().unwrap().0, 1);
        assert_eq!(out.outcome(p(2)).decision.as_ref().unwrap().0, 5);
    }

    #[test]
    fn rws_with_empty_pending_equals_rs() {
        let config = InitialConfig::new(vec![7u64, 2, 4]);
        let mut schedule = CrashSchedule::none(3);
        schedule.crash(
            p(1),
            RoundCrash {
                round: Round::new(2),
                sends_to: ProcessSet::full(3),
            },
        );
        let rs = run_rs(&MinEcho, &config, 1, &schedule);
        let rws = run_rws(&MinEcho, &config, 1, &schedule, &PendingChoice::none()).unwrap();
        assert_eq!(rs, rws);
    }

    #[test]
    fn rws_pending_withholds_sent_message() {
        let config = InitialConfig::new(vec![1u64, 5, 9]);
        let mut schedule = CrashSchedule::none(3);
        // p1 broadcasts fully in round 1 but crashes in round 2.
        schedule.crash(
            p(0),
            RoundCrash {
                round: Round::new(2),
                sends_to: ProcessSet::empty(),
            },
        );
        let mut pending = PendingChoice::none();
        pending.withhold(Round::FIRST, p(0), p(2));
        let out = run_rws(&MinEcho, &config, 1, &schedule, &pending).unwrap();
        // p2 heard 1; p3's copy of the 1 was pending, so p3 only saw
        // {5, 9} — the two surviving deciders disagree, the very
        // anomaly RWS permits.
        assert_eq!(out.outcome(p(1)).decision.as_ref().unwrap().0, 1);
        assert_eq!(out.outcome(p(2)).decision.as_ref().unwrap().0, 5);
    }

    #[test]
    fn rws_rejects_invalid_pending() {
        let config = InitialConfig::new(vec![1u64, 5, 9]);
        let schedule = CrashSchedule::none(3); // nobody crashes
        let mut pending = PendingChoice::none();
        pending.withhold(Round::FIRST, p(0), p(2));
        assert!(matches!(
            run_rws(&MinEcho, &config, 1, &schedule, &pending),
            Err(PendingError::SenderOutlivesBound { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "exceeds the fault bound")]
    fn too_many_crashes_panics() {
        let config = InitialConfig::new(vec![1u64, 5]);
        let mut schedule = CrashSchedule::none(2);
        schedule.crash(
            p(0),
            RoundCrash {
                round: Round::FIRST,
                sends_to: ProcessSet::empty(),
            },
        );
        let _ = run_rs(&MinEcho, &config, 0, &schedule);
    }

    #[test]
    #[should_panic(expected = "beyond round")]
    fn crash_beyond_horizon_panics() {
        let config = InitialConfig::new(vec![1u64, 5]);
        let mut schedule = CrashSchedule::none(2);
        schedule.crash(
            p(0),
            RoundCrash {
                round: Round::new(9),
                sends_to: ProcessSet::empty(),
            },
        );
        let _ = run_rs(&MinEcho, &config, 1, &schedule);
    }

    #[test]
    fn try_run_rs_returns_typed_errors() {
        let config = InitialConfig::new(vec![1u64, 5]);
        let mut schedule = CrashSchedule::none(2);
        schedule.crash(
            p(0),
            RoundCrash {
                round: Round::FIRST,
                sends_to: ProcessSet::empty(),
            },
        );
        assert_eq!(
            try_run_rs(&MinEcho, &config, 0, &schedule),
            Err(ScheduleError::TooManyCrashes {
                faults: 1,
                bound: 0
            })
        );
        let mut late = CrashSchedule::none(2);
        late.crash(
            p(0),
            RoundCrash {
                round: Round::new(9),
                sends_to: ProcessSet::empty(),
            },
        );
        assert_eq!(
            try_run_rs(&MinEcho, &config, 1, &late),
            Err(ScheduleError::CrashBeyondHorizon {
                process: p(0),
                round: Round::new(9),
                limit: 3,
            })
        );
        let wrong_size = CrashSchedule::none(3);
        assert_eq!(
            try_run_rs(&MinEcho, &config, 1, &wrong_size),
            Err(ScheduleError::SizeMismatch {
                expected: 2,
                got: 3
            })
        );
    }

    #[test]
    fn run_log_events_follow_canonical_round_order() {
        let config = InitialConfig::new(vec![1u64, 5, 9]);
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
        let mut obs = RunLogObserver::new(3);
        run_rws_observed(&MinEcho, &config, 1, &schedule, &pending, &mut obs).unwrap();
        let log = obs.into_log();
        let kinds: Vec<&str> = log
            .events()
            .iter()
            .map(|e| match e {
                RunEvent::Crash { .. } => "crash",
                RunEvent::Deliver { .. } => "deliver",
                RunEvent::Withhold { .. } => "withhold",
                RunEvent::Close { .. } => "close",
                RunEvent::Decide { .. } => "decide",
                _ => "other",
            })
            .collect();
        // Round 1: 8 deliveries (p1's copy to p3 withheld), one
        // withhold, close. Round 2: p1 crashes with no sends, no
        // deliveries (MinEcho only talks in round 1), close, then the
        // survivors decide.
        assert_eq!(
            kinds,
            vec![
                "deliver", "deliver", "deliver", "deliver", "deliver", "deliver", "deliver",
                "deliver", "withhold", "close", "crash", "close", "decide", "decide",
            ]
        );
        assert_eq!(log.total_delivered(), 8);
    }

    #[test]
    fn observed_run_log_carries_the_round_matrices() {
        let config = InitialConfig::new(vec![5u64, 3, 9]);
        let schedule = CrashSchedule::none(3);
        let mut obs = RunLogObserver::new(3);
        let outcome = run_rs_observed(&MinEcho, &config, 1, &schedule, &mut obs).unwrap();
        assert_eq!(outcome, run_rs(&MinEcho, &config, 1, &schedule));
        let rounds: Vec<&DeliveryMatrix> = obs
            .log()
            .events()
            .iter()
            .filter_map(|e| match e {
                RunEvent::Close {
                    process: None,
                    heard,
                    ..
                } => Some(heard),
                _ => None,
            })
            .collect();
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds.iter().map(|m| m.delivered()).sum::<usize>(), 9);
        assert!(rounds[0].heard(p(2), p(0)));
    }
}
