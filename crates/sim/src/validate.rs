//! Post-hoc validators for step-level run logs.
//!
//! The executor enforces the model online; these independent checkers
//! re-verify finished runs against the definitions of §2.3–§2.4, so
//! that tests can cross-check the executor itself and that runs
//! recorded elsewhere (the threaded runtime's step export,
//! hand-written counterexample runs) can be certified. Each scans the
//! [`RunLog`]'s `Crash`, `Deliver`/`Suspect`/`Send` and step-ending
//! `Close` events.

use core::fmt;

use ssp_model::{ProcessId, RunEvent, RunLog, StepIndex};

use crate::steps::step_end;

/// A violation found by the step-level run validators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceViolation {
    /// A process took a step at or after its crash event.
    StepAfterCrash {
        /// The offending process.
        process: ProcessId,
    },
    /// Process synchrony: `fast` took `Φ+1` steps in a window in which
    /// the alive process `starved` took none.
    ProcessSynchrony {
        /// The process with `Φ+1` steps in the window.
        fast: ProcessId,
        /// The starved process, alive at the window's end.
        starved: ProcessId,
    },
    /// Message synchrony: a message sent at schedule index `sent_at`
    /// was not received although its destination stepped at index
    /// `step` with `step ≥ sent_at + Δ`.
    MessageSynchrony {
        /// Destination of the overdue message.
        process: ProcessId,
        /// Sending process.
        src: ProcessId,
        /// Schedule index of the send.
        sent_at: StepIndex,
        /// The destination's late step that should have received it.
        step: StepIndex,
    },
    /// A message sent to a process that never crashed was still
    /// undelivered at the end of the run.
    UndeliveredToCorrect {
        /// The correct destination.
        process: ProcessId,
        /// Sending process.
        src: ProcessId,
        /// Schedule index of the send.
        sent_at: StepIndex,
    },
    /// Perfect-detector accuracy violated: a step's suspicion set
    /// contained a process that had not crashed by that point.
    InaccurateSuspicion {
        /// The suspecting process.
        observer: ProcessId,
        /// The process wrongly suspected.
        suspect: ProcessId,
        /// The observer's step with the bad detector value.
        step: StepIndex,
    },
}

impl fmt::Display for TraceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceViolation::StepAfterCrash { process } => {
                write!(f, "{process} stepped after crashing")
            }
            TraceViolation::ProcessSynchrony { fast, starved } => write!(
                f,
                "process synchrony violated: {fast} took Φ+1 steps while alive {starved} took none"
            ),
            TraceViolation::MessageSynchrony {
                process,
                src,
                sent_at,
                step,
            } => write!(
                f,
                "message synchrony violated: {src}→{process} sent at {sent_at} missing at {process}'s {step}"
            ),
            TraceViolation::UndeliveredToCorrect { process, src, sent_at } => write!(
                f,
                "eventual delivery violated: {src}→{process} sent at {sent_at} never received"
            ),
            TraceViolation::InaccurateSuspicion {
                observer,
                suspect,
                step,
            } => write!(
                f,
                "strong accuracy violated: {observer} suspected live {suspect} at {step}"
            ),
        }
    }
}

impl std::error::Error for TraceViolation {}

/// Checks the basic asynchronous-model conditions: crashed processes
/// take no further steps, and every message addressed to a process
/// that never crashes is delivered by the end of the log.
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate_basic<M>(log: &RunLog<M>) -> Result<(), TraceViolation> {
    let n = log.universe_size();
    let mut crashed = vec![false; n];
    // (src, dst, sent_at) of every send and every delivery.
    let mut sent: Vec<(ProcessId, ProcessId, StepIndex)> = Vec::new();
    let mut delivered: Vec<(ProcessId, ProcessId, StepIndex)> = Vec::new();
    for ev in log.events() {
        match ev {
            RunEvent::Crash { process, .. } => crashed[process.index()] = true,
            RunEvent::Send {
                src,
                dst,
                at: Some(at),
                ..
            } => sent.push((*src, *dst, *at)),
            RunEvent::Deliver {
                src,
                dst,
                sent_at: Some(at),
                ..
            } => delivered.push((*src, *dst, *at)),
            ev => {
                if let Some((process, _)) = step_end(ev).filter(|(p, _)| crashed[p.index()]) {
                    return Err(TraceViolation::StepAfterCrash { process });
                }
            }
        }
    }
    for i in (0..n).filter(|&i| !crashed[i]) {
        let process = ProcessId::new(i);
        if let Some(&(src, _, sent_at)) = sent
            .iter()
            .find(|s| s.1 == process && !delivered.contains(s))
        {
            return Err(TraceViolation::UndeliveredToCorrect {
                process,
                src,
                sent_at,
            });
        }
    }
    Ok(())
}

/// Checks the accuracy half of the perfect detector `P` (§2.6): no
/// step's suspicion set contains a process that was still alive at
/// that point of the log.
///
/// (Completeness — crashed processes being *eventually* suspected — is
/// a liveness property with no finite-run refutation; finite logs can
/// only certify accuracy.)
///
/// # Errors
///
/// Returns the first inaccurate suspicion found.
pub fn validate_perfect_fd<M>(log: &RunLog<M>) -> Result<(), TraceViolation> {
    let mut crashed = vec![false; log.universe_size()];
    // The current step's first wrongly suspected process.
    let mut inaccurate = None;
    for ev in log.events() {
        match ev {
            RunEvent::Crash { process, .. } => crashed[process.index()] = true,
            RunEvent::Suspect {
                observer,
                suspected,
            } => {
                inaccurate = suspected
                    .iter()
                    .find(|q| !crashed[q.index()])
                    .map(|suspect| (*observer, suspect));
            }
            ev => {
                if let (Some((_, stamp)), Some((observer, suspect))) = (step_end(ev), inaccurate) {
                    return Err(TraceViolation::InaccurateSuspicion {
                        observer,
                        suspect,
                        step: stamp.global_step,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Checks the two `SS` synchrony conditions of §2.4 on a finished run.
///
/// *Process synchrony*: for every pair of alive processes, between two
/// consecutive steps of one, the other takes at most `Φ` steps.
/// *Message synchrony*: a message sent at schedule index `k` is present
/// in the receiver's deliveries no later than its first step at index
/// `l ≥ k + Δ`.
///
/// # Errors
///
/// Returns the first violation found. Run [`validate_basic`] separately
/// for the model-independent conditions.
pub fn validate_ss<M>(log: &RunLog<M>, phi: u64, delta: u64) -> Result<(), TraceViolation> {
    let n = log.universe_size();
    // since[p][q]: steps p has taken since q's last step.
    let mut since = vec![0u64; n * n];
    let mut crashed = vec![false; n];
    // Outstanding sends per destination: (src, sent_at).
    let mut outstanding: Vec<Vec<(ProcessId, StepIndex)>> = vec![Vec::new(); n];
    // The current step's deliveries and send.
    let mut received: Vec<(ProcessId, StepIndex)> = Vec::new();
    let mut sent: Option<(ProcessId, ProcessId, StepIndex)> = None;

    for ev in log.events() {
        match ev {
            RunEvent::Crash { process, .. } => crashed[process.index()] = true,
            RunEvent::Deliver {
                src,
                sent_at: Some(at),
                ..
            } => received.push((*src, *at)),
            RunEvent::Send {
                src,
                dst,
                at: Some(at),
                ..
            } => sent = Some((*src, *dst, *at)),
            ev => {
                let Some((p, stamp)) = step_end(ev) else {
                    continue;
                };
                // Process synchrony.
                for q in 0..n {
                    if q != p.index() && !crashed[q] && since[p.index() * n + q] >= phi {
                        return Err(TraceViolation::ProcessSynchrony {
                            fast: p,
                            starved: ProcessId::new(q),
                        });
                    }
                }
                for q in 0..n {
                    if q != p.index() {
                        since[p.index() * n + q] += 1;
                        since[q * n + p.index()] = 0;
                    }
                }
                // Message synchrony: everything overdue must be received.
                outstanding[p.index()].retain(|key| !received.contains(key));
                received.clear();
                if let Some(&(src, sent_at)) =
                    outstanding[p.index()].iter().find(|&&(_, sent_at)| {
                        sent_at.position() + delta <= stamp.global_step.position()
                    })
                {
                    return Err(TraceViolation::MessageSynchrony {
                        process: p,
                        src,
                        sent_at,
                        step: stamp.global_step,
                    });
                }
                // Record this step's send.
                if let Some((src, dst, at)) = sent.take() {
                    outstanding[dst.index()].push((src, at));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Event;
    use crate::adversary::{DeliveryChoice, FairAdversary, ScriptedAdversary};
    use crate::automaton::{BoxedAutomaton, IdleAutomaton, StepAutomaton, StepContext};
    use crate::exec::{run, ModelKind};
    use crate::steps::tests::{close, crash, deliver, log_of, p, send};
    use ssp_model::ProcessSet;

    #[derive(Debug)]
    struct Chatter {
        peer: ProcessId,
    }

    impl StepAutomaton for Chatter {
        type Msg = u32;
        type Output = u32;
        fn step(&mut self, ctx: StepContext<'_, u32>) -> Option<(ProcessId, u32)> {
            Some((self.peer, ctx.own_step as u32))
        }
        fn output(&self) -> Option<u32> {
            None
        }
    }

    fn chatters() -> Vec<BoxedAutomaton<u32, u32>> {
        vec![
            Box::new(Chatter { peer: p(1) }),
            Box::new(Chatter { peer: p(0) }),
        ]
    }

    #[test]
    fn executor_ss_runs_pass_both_validators() {
        let mut adv = FairAdversary::new(2, 40).with_min_events(40);
        let result = run(ModelKind::ss(1, 2), chatters(), &mut adv, 1_000).unwrap();
        validate_ss(&result.log, 1, 2).unwrap();
        // Chatters keep sending until the end; the last sends are
        // legitimately still in flight, so prune: deliver-all fair runs
        // only leave the final messages. We check the validator's
        // positive path on a quiescent idle run instead.
        let idle: Vec<BoxedAutomaton<u32, u32>> = vec![
            Box::new(IdleAutomaton::new()),
            Box::new(IdleAutomaton::new()),
        ];
        let mut adv2 = FairAdversary::new(2, 10).with_min_events(10);
        let r2 = run(ModelKind::ss(1, 2), idle, &mut adv2, 1_000).unwrap();
        validate_basic(&r2.log).unwrap();
    }

    #[test]
    fn validator_catches_phi_violation() {
        // Build an illegal trace via the *async* executor (no Φ check),
        // then validate it as SS.
        let mut adv = ScriptedAdversary::new(
            vec![Event::Step(p(0)), Event::Step(p(0))],
            vec![DeliveryChoice::Nothing; 2],
        );
        let idle: Vec<BoxedAutomaton<u32, u32>> = vec![
            Box::new(IdleAutomaton::new()),
            Box::new(IdleAutomaton::new()),
        ];
        let result = run(ModelKind::Async, idle, &mut adv, 100).unwrap();
        let err = validate_ss(&result.log, 1, 1).unwrap_err();
        assert!(matches!(err, TraceViolation::ProcessSynchrony { .. }));
    }

    #[test]
    fn validator_catches_delta_violation() {
        // p1 sends at step 0; p2 steps at index 3 without receiving (Δ=2).
        let mut adv = ScriptedAdversary::new(
            vec![
                Event::Step(p(0)),
                Event::Step(p(1)),
                Event::Step(p(0)),
                Event::Step(p(1)),
            ],
            vec![DeliveryChoice::Nothing; 4],
        );
        let result = run(ModelKind::Async, chatters(), &mut adv, 100).unwrap();
        let err = validate_ss(&result.log, 10, 2).unwrap_err();
        assert!(matches!(err, TraceViolation::MessageSynchrony { .. }));
    }

    #[test]
    fn validator_catches_undelivered_to_correct() {
        let mut adv = ScriptedAdversary::new(
            vec![Event::Step(p(0)), Event::Step(p(1))],
            vec![DeliveryChoice::Nothing; 2],
        );
        let result = run(ModelKind::Async, chatters(), &mut adv, 100).unwrap();
        let err = validate_basic(&result.log).unwrap_err();
        assert!(matches!(err, TraceViolation::UndeliveredToCorrect { .. }));
    }

    #[test]
    fn violations_display() {
        let v = TraceViolation::StepAfterCrash { process: p(0) };
        assert!(v.to_string().contains("p1"));
        let v = TraceViolation::InaccurateSuspicion {
            observer: p(1),
            suspect: p(0),
            step: StepIndex::new(3),
        };
        assert!(v.to_string().contains("suspected live p1"));
    }

    fn suspect(observer: usize, suspected: usize) -> RunEvent<u32> {
        RunEvent::Suspect {
            observer: p(observer),
            suspected: ProcessSet::singleton(p(suspected)),
        }
    }

    #[test]
    fn perfect_fd_accepts_post_crash_suspicion() {
        let log = log_of(2, vec![crash(0, 0), suspect(1, 0), close(1, 1, 0, 0)]);
        validate_perfect_fd(&log).unwrap();
    }

    #[test]
    fn perfect_fd_rejects_premature_suspicion() {
        let log = log_of(2, vec![suspect(1, 0), close(1, 0, 0, 0)]);
        let err = validate_perfect_fd(&log).unwrap_err();
        assert_eq!(
            err,
            TraceViolation::InaccurateSuspicion {
                observer: p(1),
                suspect: p(0),
                step: StepIndex::new(0),
            }
        );
    }

    #[test]
    fn basic_rejects_a_step_after_crash() {
        let log = log_of(2, vec![crash(0, 0), close(0, 1, 0, 0)]);
        assert_eq!(
            validate_basic(&log),
            Err(TraceViolation::StepAfterCrash { process: p(0) })
        );
    }

    #[test]
    fn basic_finds_the_message_a_correct_process_never_received() {
        // p1 sends 7 to p2, which then steps without it.
        let undelivered = log_of(
            2,
            vec![send(0, 1, 0, 7), close(0, 0, 0, 0), close(1, 1, 1, 0)],
        );
        assert_eq!(
            validate_basic(&undelivered),
            Err(TraceViolation::UndeliveredToCorrect {
                process: p(1),
                src: p(0),
                sent_at: StepIndex::new(0),
            })
        );
        // Delivered after the sender's crash: nothing is missing.
        let delivered = log_of(
            2,
            vec![
                send(0, 1, 0, 7),
                close(0, 0, 0, 0),
                crash(0, 1),
                deliver(0, 1, 0, 7),
                close(1, 2, 1, 0),
            ],
        );
        validate_basic(&delivered).unwrap();
    }
}
