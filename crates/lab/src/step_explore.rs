//! Exhaustive exploration of *step-level* runs: a bounded model
//! checker for the `SS`/`SP`/async executors.
//!
//! The round-level enumeration of [`crate::enumerate`] quantifies over
//! round-model adversaries; this module quantifies over the raw §2
//! adversary — every interleaving of steps and crashes and every
//! delivery subset — up to per-process step caps. It is what lets E1
//! ("SDD is solvable in SS") be checked over *all* legal SS schedules
//! rather than sampled ones.
//!
//! The search replays script prefixes through the real executor, so
//! whatever it visits is exactly what [`ssp_sim::run`] would produce;
//! there is no separate (and possibly divergent) semantics.

use ssp_model::{process::all_processes, ProcessId, ProcessSet};
use ssp_sim::{
    run, step_count, BoxedAutomaton, DeliveryChoice, Event, ModelKind, RunResult, ScriptedAdversary,
};

/// The bounded space of step-level runs to explore.
#[derive(Debug, Clone)]
pub struct StepSpace {
    /// The model each run executes under.
    pub model: ModelKind,
    /// Per-process step caps: a branch stops scheduling `p` after
    /// `step_caps[p]` steps. Choose caps beyond which the automata are
    /// quiescent (e.g. `Φ+2+Δ` for the SDD receiver) so that capping
    /// does not hide behaviour.
    pub step_caps: Vec<u64>,
    /// Which processes the adversary may crash.
    pub crashable: ProcessSet,
    /// How many crashes the adversary may inject in one run.
    pub max_crashes: usize,
}

impl StepSpace {
    fn n(&self) -> usize {
        self.step_caps.len()
    }
}

/// Enumerates the delivery subsets of a buffer as key lists.
fn delivery_subsets(keys: &[(ProcessId, ssp_model::StepIndex)]) -> Vec<DeliveryChoice> {
    assert!(
        keys.len() <= 12,
        "buffer of {} messages is too large to enumerate",
        keys.len()
    );
    (0..(1usize << keys.len()))
        .map(|bits| {
            DeliveryChoice::Keys(
                keys.iter()
                    .enumerate()
                    .filter(|(i, _)| bits & (1 << i) != 0)
                    .map(|(_, k)| *k)
                    .collect(),
            )
        })
        .collect()
}

/// Explores every run of `space`, calling `visit` on each *maximal*
/// run (one where no further scheduling choice exists, or every alive
/// process is quiescent: decided, step-capped or with an empty
/// buffer-and-nothing-pending). Returns the number of leaves visited;
/// `visit` returning `true` aborts the search early.
///
/// # Panics
///
/// Panics if a replayed prefix is rejected by the executor (impossible
/// for choices generated here) or if a buffer exceeds 12 messages.
pub fn explore_step_runs<M, O, G, F>(factory: G, space: &StepSpace, mut visit: F) -> u64
where
    M: Clone + core::fmt::Debug + PartialEq,
    O: Clone + core::fmt::Debug + PartialEq,
    G: Fn() -> Vec<BoxedAutomaton<M, O>>,
    F: FnMut(&RunResult<M, O>) -> bool,
{
    let mut leaves = 0;
    let mut stop = false;
    let mut script: Vec<(Event, DeliveryChoice)> = Vec::new();
    dfs(
        &factory,
        space,
        &mut script,
        &mut leaves,
        &mut stop,
        &mut visit,
    );
    leaves
}

fn replay<M, O, G>(
    factory: &G,
    space: &StepSpace,
    script: &[(Event, DeliveryChoice)],
) -> RunResult<M, O>
where
    M: Clone + core::fmt::Debug + PartialEq,
    O: Clone + core::fmt::Debug + PartialEq,
    G: Fn() -> Vec<BoxedAutomaton<M, O>>,
{
    let events: Vec<Event> = script.iter().map(|(e, _)| *e).collect();
    let deliveries: Vec<DeliveryChoice> = script
        .iter()
        .filter(|(e, _)| matches!(e, Event::Step(_)))
        .map(|(_, d)| d.clone())
        .collect();
    let mut adv = ScriptedAdversary::new(events, deliveries);
    run(
        space.model.clone(),
        factory(),
        &mut adv,
        script.len() as u64 + 1,
    )
    .expect("generated scripts are always legal")
}

fn dfs<M, O, G, F>(
    factory: &G,
    space: &StepSpace,
    script: &mut Vec<(Event, DeliveryChoice)>,
    leaves: &mut u64,
    stop: &mut bool,
    visit: &mut F,
) where
    M: Clone + core::fmt::Debug + PartialEq,
    O: Clone + core::fmt::Debug + PartialEq,
    G: Fn() -> Vec<BoxedAutomaton<M, O>>,
    F: FnMut(&RunResult<M, O>) -> bool,
{
    if *stop {
        return;
    }
    let state = replay(factory, space, script);
    let n = space.n();
    let crashes = state.pattern.fault_count();

    // Enumerate the available choices.
    let mut choices: Vec<(Event, DeliveryChoice)> = Vec::new();
    let schedulable = state.final_alive.difference(state.final_blocked);
    for p in all_processes(n) {
        if !schedulable.contains(p) {
            continue;
        }
        if step_count(&state.log, p) >= space.step_caps[p.index()] {
            continue;
        }
        // A step is only *interesting* if the process is not already
        // quiescent: undecided, or holding undelivered messages.
        let keys: Vec<_> = state.final_buffers[p.index()]
            .iter()
            .map(|e| (e.src, e.sent_at))
            .collect();
        for d in delivery_subsets(&keys) {
            choices.push((Event::Step(p), d));
        }
    }
    if crashes < space.max_crashes {
        for p in state.final_alive.intersection(space.crashable).iter() {
            choices.push((Event::Crash(p), DeliveryChoice::Nothing));
        }
    }

    if choices.is_empty() {
        *leaves += 1;
        if visit(&state) {
            *stop = true;
        }
        return;
    }
    for choice in choices {
        script.push(choice);
        dfs(factory, space, script, leaves, stop, visit);
        script.pop();
        if *stop {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_algos::{SddSender, SsSddReceiver};
    use ssp_model::{check_sdd, SddOutcome};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn sdd_space(phi: u64, delta: u64) -> StepSpace {
        StepSpace {
            model: ModelKind::ss(phi, delta),
            // Sender quiescent after 1 step (+1 slack); receiver decides
            // by its (Φ+1+Δ)-th step (+1 slack).
            step_caps: vec![2, phi + delta + 2],
            crashable: ProcessSet::singleton(p(0)),
            max_crashes: 1,
        }
    }

    /// E1, exhaustive at the step level: over *every* legal SS schedule
    /// (within quiescence caps), every delivery subset, and every
    /// sender crash point, the Φ+1+Δ receiver satisfies SDD.
    #[test]
    fn sdd_in_ss_exhaustive_over_all_schedules() {
        for (phi, delta) in [(1u64, 1u64), (2, 1), (1, 2)] {
            for input in [false, true] {
                let factory = || -> Vec<BoxedAutomaton<bool, bool>> {
                    vec![
                        Box::new(SddSender::new(p(1), input)),
                        Box::new(SsSddReceiver::new(p(0), phi, delta)),
                    ]
                };
                let mut checked = 0u64;
                let leaves = explore_step_runs(factory, &sdd_space(phi, delta), |state| {
                    // Only leaves where the receiver survived and
                    // exhausted its budget are obligated to decide.
                    let receiver_done = step_count(&state.log, p(1)) >= phi + 1 + delta;
                    let outcome = SddOutcome {
                        sender_input: input,
                        sender_initially_dead: step_count(&state.log, p(0)) == 0,
                        receiver_correct: state.pattern.is_correct(p(1)),
                        decision: state.outputs[1],
                    };
                    if state.pattern.is_correct(p(1)) && receiver_done {
                        checked += 1;
                        if let Err(e) = check_sdd(&outcome) {
                            panic!(
                                "Φ={phi} Δ={delta} input={input}: {e}\n{}",
                                state.log.to_jsonl()
                            );
                        }
                    } else if let Some(d) = outcome.decision {
                        // Even partial runs must never violate validity.
                        checked += 1;
                        assert!(
                            outcome.sender_initially_dead || d == input,
                            "Φ={phi} Δ={delta}: premature wrong decision\n{}",
                            state.log.to_jsonl()
                        );
                    }
                    false
                });
                assert!(leaves >= 10, "space unexpectedly small: {leaves}");
                assert!(checked > 0, "no leaf exercised the obligation");
            }
        }
    }

    /// The explorer respects Φ: no generated leaf trace fails the
    /// independent SS validator.
    #[test]
    fn explored_runs_are_all_legal_ss() {
        let factory = || -> Vec<BoxedAutomaton<bool, bool>> {
            vec![
                Box::new(SddSender::new(p(1), true)),
                Box::new(SsSddReceiver::new(p(0), 1, 1)),
            ]
        };
        explore_step_runs(factory, &sdd_space(1, 1), |state| {
            ssp_sim::validate_ss(&state.log, 1, 1).expect("legal SS run");
            false
        });
    }

    #[test]
    #[should_panic(expected = "too large to enumerate")]
    fn oversized_buffers_are_rejected() {
        let keys: Vec<_> = (0..13)
            .map(|i| (p(0), ssp_model::StepIndex::new(i)))
            .collect();
        let _ = delivery_subsets(&keys);
    }
}

#[cfg(test)]
mod sp_tests {
    use super::*;
    use ssp_algos::{SddSender, SpSddReceiver};
    use ssp_model::{check_sdd, SddOutcome};
    use ssp_sim::DetectionDelays;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Theorem 3.1 found *by search*: exploring the SP step space
    /// around the natural candidate turns up a validity-violating run
    /// without any knowledge of the proof's construction.
    #[test]
    fn sp_exploration_discovers_the_sdd_violation() {
        let input = true;
        let factory = || -> Vec<BoxedAutomaton<bool, bool>> {
            vec![
                Box::new(SddSender::new(p(1), input)),
                Box::new(SpSddReceiver::new(p(0))),
            ]
        };
        let space = StepSpace {
            model: ModelKind::sp(DetectionDelays::immediate()),
            step_caps: vec![2, 4],
            crashable: ProcessSet::singleton(p(0)),
            max_crashes: 1,
        };
        let mut violations = 0u64;
        let leaves = explore_step_runs(factory, &space, |state| {
            let outcome = SddOutcome {
                sender_input: input,
                sender_initially_dead: step_count(&state.log, p(0)) == 0,
                receiver_correct: state.pattern.is_correct(p(1)),
                decision: state.outputs[1],
            };
            // Count only *certain* violations: a wrong decision is
            // final; missing decisions may be cap artifacts.
            if let Err(e) = check_sdd(&outcome) {
                if outcome.decision.is_some() {
                    violations += 1;
                    let _ = e;
                }
            }
            false
        });
        assert!(leaves > 20);
        assert!(
            violations > 0,
            "the search must stumble on the Theorem 3.1 run by itself"
        );
    }

    /// Control: the same exploration against the *SS* receiver in the
    /// SS model finds no violation — the asymmetry is the models', not
    /// the search's.
    #[test]
    fn ss_exploration_finds_no_violation_for_the_ss_receiver() {
        use ssp_algos::SsSddReceiver;
        let input = true;
        let (phi, delta) = (1, 1);
        let factory = || -> Vec<BoxedAutomaton<bool, bool>> {
            vec![
                Box::new(SddSender::new(p(1), input)),
                Box::new(SsSddReceiver::new(p(0), phi, delta)),
            ]
        };
        let space = StepSpace {
            model: ModelKind::ss(phi, delta),
            step_caps: vec![2, phi + delta + 2],
            crashable: ProcessSet::singleton(p(0)),
            max_crashes: 1,
        };
        explore_step_runs(factory, &space, |state| {
            let outcome = SddOutcome {
                sender_input: input,
                sender_initially_dead: step_count(&state.log, p(0)) == 0,
                receiver_correct: state.pattern.is_correct(p(1)),
                decision: state.outputs[1],
            };
            if outcome.decision.is_some() {
                check_sdd(&outcome).expect("SS receiver is sound on every branch");
            }
            false
        });
    }
}
