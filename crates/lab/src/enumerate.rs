//! Exhaustive enumeration of round-model runs: a bounded model checker.
//!
//! Every claim of §5 quantifies over *all* runs (or all initial
//! configurations, or all failure patterns). For small `n`, `t` these
//! spaces are finite and can be enumerated outright:
//!
//! * [`crash_schedules`] — every crash plan with at most `t` crashes,
//!   every crash round (including `horizon + 1`, the "decide then
//!   crash" shape) and every partial-send subset;
//! * [`pending_choices`] — every pending-message choice valid under
//!   weak round synchrony for a given crash plan;
//! * [`explore_runs`] — run an algorithm over the whole cross product
//!   of either model and fold each outcome into a caller-provided
//!   visitor.
//!
//! The visitor style keeps memory flat: `n = 4, t = 2` RWS spaces run
//! to millions of runs, each checked in microseconds.

use ssp_model::{
    config::enumerate_configs, ConsensusOutcome, InitialConfig, ProcessId, ProcessSet, Round, Value,
};
use ssp_rounds::{
    run_rs, run_rws, CrashSchedule, PendingChoice, RoundAlgorithm, RoundCrash, RoundModel,
};

/// All crash schedules over `n` processes with at most `max_faults`
/// crashes, crash rounds in `1..=max_round`, and arbitrary final-round
/// send subsets.
///
/// Pass `max_round = horizon + 1` to include the post-decision crashes
/// that the `RWS` counterexamples need.
///
/// # Examples
///
/// ```
/// use ssp_lab::enumerate::crash_schedules;
///
/// // 2 processes, ≤1 crash, rounds {1,2}: 1 + 2·(2·4) = 17.
/// assert_eq!(crash_schedules(2, 1, 2).len(), 17);
/// ```
#[must_use]
pub fn crash_schedules(n: usize, max_faults: usize, max_round: u32) -> Vec<CrashSchedule> {
    let mut out = Vec::new();
    let mut current = CrashSchedule::none(n);
    fn recurse(
        n: usize,
        from: usize,
        remaining: usize,
        max_round: u32,
        current: &mut CrashSchedule,
        out: &mut Vec<CrashSchedule>,
    ) {
        out.push(current.clone());
        if remaining == 0 {
            return;
        }
        for i in from..n {
            let p = ProcessId::new(i);
            for r in 1..=max_round {
                for subset_bits in 0..(1u64 << n) {
                    let mut s = current.clone();
                    s.crash(
                        p,
                        RoundCrash {
                            round: Round::new(r),
                            sends_to: ProcessSet::from_bits(subset_bits),
                        },
                    );
                    let mut next = s;
                    recurse(n, i + 1, remaining - 1, max_round, &mut next, out);
                }
            }
        }
    }
    recurse(n, 0, max_faults, max_round, &mut current, &mut out);
    out
}

/// Every valid [`PendingChoice`] for the schedule (the power set of
/// [`CrashSchedule::pendable`]). The first element is always the empty choice.
///
/// # Panics
///
/// Panics if there are more than 20 pendable triples (2^20 choices) —
/// keep `n`, `t` small.
#[must_use]
pub fn pending_choices(schedule: &CrashSchedule, horizon: u32) -> Vec<PendingChoice> {
    let triples = schedule.pendable(horizon);
    assert!(
        triples.len() <= 20,
        "{} pendable triples is too many to enumerate",
        triples.len()
    );
    (0..(1u64 << triples.len()))
        .map(|bits| {
            let mut choice = PendingChoice::none();
            for (i, &(r, s, d)) in triples.iter().enumerate() {
                if bits & (1 << i) != 0 {
                    choice.withhold(r, s, d);
                }
            }
            choice
        })
        .collect()
}

/// One enumerated run: the inputs that produced an outcome.
#[derive(Debug, Clone)]
pub struct EnumeratedRun<'a, V> {
    /// The initial configuration.
    pub config: &'a InitialConfig<V>,
    /// The crash schedule.
    pub schedule: &'a CrashSchedule,
    /// The pending choice (always empty for `RS`).
    pub pending: &'a PendingChoice,
    /// The run's outcome.
    pub outcome: ConsensusOutcome<V>,
}

/// Runs `algo` in `model` over every configuration (over `domain`),
/// every crash schedule and — in `RWS` — every valid pending choice,
/// invoking `visit` per run. Returns the number of runs explored.
pub fn explore_runs<V, A, F>(
    algo: &A,
    model: RoundModel,
    n: usize,
    t: usize,
    domain: &[V],
    mut visit: F,
) -> u64
where
    V: Value,
    A: RoundAlgorithm<V>,
    F: FnMut(&EnumeratedRun<'_, V>),
{
    let horizon = algo.round_horizon(n, t);
    let schedules = crash_schedules(n, t, horizon + 1);
    let mut count = 0;
    for config in enumerate_configs(n, domain) {
        for schedule in &schedules {
            let pendings = match model {
                RoundModel::Rs => vec![PendingChoice::none()],
                RoundModel::Rws => pending_choices(schedule, horizon),
            };
            for pending in &pendings {
                let outcome = match model {
                    RoundModel::Rs => run_rs(algo, &config, t, schedule),
                    RoundModel::Rws => run_rws(algo, &config, t, schedule, pending)
                        .expect("enumerated pending choices are valid"),
                };
                count += 1;
                visit(&EnumeratedRun {
                    config: &config,
                    schedule,
                    pending,
                    outcome,
                });
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_algos::FloodSet;

    #[test]
    fn schedule_count_matches_formula() {
        // n=2, ≤1 fault, rounds ≤ 2, subsets 2^2:
        // 1 + C(2,1)·2·4 = 17.
        assert_eq!(crash_schedules(2, 1, 2).len(), 17);
        // Two faults add C(2,2)·(2·4)² = 64 ⇒ 81.
        assert_eq!(crash_schedules(2, 2, 2).len(), 81);
    }

    #[test]
    fn pending_choices_include_empty_and_full() {
        let mut schedule = CrashSchedule::none(2);
        schedule.crash(
            ProcessId::new(0),
            RoundCrash {
                round: Round::FIRST,
                sends_to: ProcessSet::full(2),
            },
        );
        let choices = pending_choices(&schedule, 1);
        assert_eq!(choices.len(), 2); // one pendable triple (p1→p2 @ r1)
        assert!(choices[0].is_empty());
        assert_eq!(choices[1].len(), 1);
    }

    #[test]
    fn rs_sweep_visits_every_combination() {
        let mut runs = 0u64;
        let visited = explore_runs(&FloodSet, RoundModel::Rs, 2, 1, &[0u64, 1], |_| runs += 1);
        // 4 configs × schedules(n=2, t=1, rounds ≤ 3).
        let schedules = crash_schedules(2, 1, 3).len() as u64;
        assert_eq!(visited, 4 * schedules);
        assert_eq!(runs, visited);
    }

    #[test]
    fn rws_sweep_includes_pending_dimension() {
        let rs = explore_runs(&FloodSet, RoundModel::Rs, 2, 1, &[0u64, 1], |_| {});
        let rws = explore_runs(&FloodSet, RoundModel::Rws, 2, 1, &[0u64, 1], |_| {});
        assert!(rws > rs, "pending choices must add runs ({rws} vs {rs})");
    }
}
