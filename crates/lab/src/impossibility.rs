//! The Theorem 3.1 adversary: no algorithm solves SDD in `SP`.
//!
//! The proof is constructive run surgery, and this module executes it
//! against *any* candidate (sender, receiver) automaton pair:
//!
//! 1. Run `r0`: the sender crashes before taking a step; the perfect
//!    detector reports it immediately; the receiver runs until it
//!    decides (it must — Termination), say `d0`, after `k` steps.
//! 2. Splice `r'`: prepend one sender step (its message, if any, is
//!    withheld — `SP` message delays are finite but unbounded), crash
//!    the sender, and replay the receiver's `k` steps. The receiver's
//!    local views are *identical* to `r0` — same empty deliveries, same
//!    suspicion of the sender — so, being deterministic, it again
//!    decides `d0`.
//! 3. Choose the sender's input `b = ¬d0`. In `r'` the sender took a
//!    step, so Validity forces the decision `b ≠ d0` — contradiction,
//!    exhibited as a concrete violating run.
//!
//! Every candidate loses: either it never decides in `r0`
//! (Termination violation) or the spliced run breaks Validity.

use core::fmt;

use ssp_model::{check_sdd, ProcessId, RunLog, SddOutcome, SddViolation};
use ssp_sim::{
    run, step_count, Adversary, BoxedAutomaton, Choice, DeliveryChoice, DetectionDelays, Event,
    ExecView, ModelKind, ScriptedAdversary,
};

fn sender_id() -> ProcessId {
    ProcessId::new(0)
}

fn receiver_id() -> ProcessId {
    ProcessId::new(1)
}

/// A factory for SDD candidate algorithms in `SP`: given the sender's
/// input, produce the two automata. Process 0 is the sender, process 1
/// the receiver.
pub trait SddCandidate {
    /// The candidate's message type.
    type Msg: Clone + fmt::Debug + PartialEq + 'static;

    /// Candidate name for reports.
    fn name(&self) -> &str;

    /// Fresh sender automaton with the given input bit.
    fn sender(&self, input: bool) -> BoxedAutomaton<Self::Msg, bool>;

    /// Fresh receiver automaton.
    fn receiver(&self) -> BoxedAutomaton<Self::Msg, bool>;
}

/// How the candidate was defeated.
#[derive(Debug)]
pub enum SddRefutation<M> {
    /// The receiver failed to decide within the step cap in `r0`, where
    /// it is correct and the detector reported the crash at once —
    /// a Termination violation. The non-deciding run is the report's
    /// `base_run`.
    Termination,
    /// The spliced run decided against the sender's input.
    Validity {
        /// The sender's input in the spliced run.
        input: bool,
        /// What the receiver (wrongly) decided.
        decided: bool,
        /// The spliced, violating run.
        log: RunLog<M>,
    },
}

/// Full forensic record of a refutation.
#[derive(Debug)]
pub struct RefutationReport<M> {
    /// The candidate's name.
    pub candidate: String,
    /// The base run `r0` (sender initially dead).
    pub base_run: RunLog<M>,
    /// What the receiver decided in `r0`, if anything.
    pub base_decision: Option<bool>,
    /// The defeat.
    pub refutation: SddRefutation<M>,
}

impl<M> fmt::Display for RefutationReport<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Theorem 3.1 refutation of candidate '{}':",
            self.candidate
        )?;
        match &self.refutation {
            SddRefutation::Termination => writeln!(
                f,
                "  r0 (sender initially dead, suspected at once): receiver never decides — Termination violated"
            ),
            SddRefutation::Validity { input, decided, .. } => {
                writeln!(
                    f,
                    "  r0 (sender initially dead): receiver decides {}",
                    self.base_decision.map_or("nothing".into(), |d| (d as u8).to_string())
                )?;
                writeln!(
                    f,
                    "  r' (sender input {}, takes one step, message withheld): receiver's views match r0, so it decides {} — Validity violated",
                    *input as u8, *decided as u8
                )
            }
        }
    }
}

/// Adversary for `r0`: crash the sender first, then step the receiver
/// (delivering everything — there is nothing) until it decides or the
/// cap runs out.
#[derive(Debug)]
struct InitiallyDeadAdversary {
    emitted: u64,
    receiver_step_cap: u64,
}

impl<M> Adversary<M> for InitiallyDeadAdversary {
    fn next(&mut self, view: &ExecView<'_, M>) -> Option<Choice> {
        let choice = if self.emitted == 0 {
            Choice::crash(sender_id())
        } else {
            if view.decided[receiver_id().index()] || self.emitted > self.receiver_step_cap {
                return None;
            }
            Choice::step_all(receiver_id())
        };
        self.emitted += 1;
        Some(choice)
    }
}

/// Executes the Theorem 3.1 surgery against a candidate.
///
/// Always succeeds in refuting: returns either a Termination or a
/// Validity refutation with full run logs.
///
/// # Panics
///
/// Panics if the spliced run unexpectedly fails to reproduce the base
/// decision — which would indicate a non-deterministic candidate,
/// violating the model's premises (§2.2: automata are deterministic).
pub fn refute<C: SddCandidate>(candidate: &C, receiver_step_cap: u64) -> RefutationReport<C::Msg> {
    let delays = DetectionDelays::immediate();

    // --- r0: sender initially dead, input arbitrary (say false). ---
    let automata = vec![candidate.sender(false), candidate.receiver()];
    let mut adv = InitiallyDeadAdversary {
        emitted: 0,
        receiver_step_cap,
    };
    let r0 = run(
        ModelKind::sp(delays.clone()),
        automata,
        &mut adv,
        receiver_step_cap + 10,
    )
    .expect("r0 uses only legal choices");
    let base_decision = r0.outputs[receiver_id().index()];

    let Some(d0) = base_decision else {
        return RefutationReport {
            candidate: candidate.name().to_string(),
            base_run: r0.log,
            base_decision: None,
            refutation: SddRefutation::Termination,
        };
    };

    // --- r': prepend a sender step, withhold its message, replay. ---
    let input = !d0; // Validity will demand ¬d0; the receiver will say d0.
    let receiver_steps = step_count(&r0.log, receiver_id());
    let mut events = vec![Event::Step(sender_id()), Event::Crash(sender_id())];
    let mut deliveries = vec![DeliveryChoice::Nothing]; // the sender's step
    for _ in 0..receiver_steps {
        events.push(Event::Step(receiver_id()));
        deliveries.push(DeliveryChoice::Nothing); // keep views identical to r0
    }
    // Eventual delivery for fairness: one last receiver step taking
    // whatever the sender managed to send (the decision is already made).
    events.push(Event::Step(receiver_id()));
    deliveries.push(DeliveryChoice::All);
    let mut scripted = ScriptedAdversary::new(events, deliveries);
    let automata = vec![candidate.sender(input), candidate.receiver()];
    let spliced = run(
        ModelKind::sp(delays),
        automata,
        &mut scripted,
        receiver_steps + 10,
    )
    .expect("r' uses only legal choices");

    let decided = spliced.outputs[receiver_id().index()]
        .expect("deterministic receiver repeats its r0 decision");
    assert_eq!(
        decided, d0,
        "candidate is not deterministic: r' and r0 views agree but decisions differ"
    );

    // Certify the violation with the specification checker.
    let outcome = SddOutcome {
        sender_input: input,
        sender_initially_dead: step_count(&spliced.log, sender_id()) == 0,
        receiver_correct: spliced.pattern.is_correct(receiver_id()),
        decision: Some(decided),
    };
    assert_eq!(
        check_sdd(&outcome),
        Err(SddViolation::Validity { input, decided: d0 }),
        "surgery must yield a certified validity violation"
    );

    RefutationReport {
        candidate: candidate.name().to_string(),
        base_run: r0.log,
        base_decision,
        refutation: SddRefutation::Validity {
            input,
            decided,
            log: spliced.log,
        },
    }
}

/// The natural candidates from `ssp-algos`, packaged for [`refute`].
pub mod candidates {
    use super::{receiver_id, sender_id, SddCandidate};
    use ssp_algos::{PatientSpSddReceiver, SddSender, SpSddReceiver};
    use ssp_sim::BoxedAutomaton;

    /// "Decide on the message, or 0 on suspicion."
    #[derive(Debug, Clone, Copy, Default)]
    pub struct WaitOrSuspect;

    impl SddCandidate for WaitOrSuspect {
        type Msg = bool;

        fn name(&self) -> &str {
            "wait-until-message-or-suspicion"
        }

        fn sender(&self, input: bool) -> BoxedAutomaton<bool, bool> {
            Box::new(SddSender::new(receiver_id(), input))
        }

        fn receiver(&self) -> BoxedAutomaton<bool, bool> {
            Box::new(SpSddReceiver::new(sender_id()))
        }
    }

    /// Like [`WaitOrSuspect`] but lingering `patience` extra steps
    /// after the first suspicion.
    #[derive(Debug, Clone, Copy)]
    pub struct PatientWait(pub u64);

    impl SddCandidate for PatientWait {
        type Msg = bool;

        fn name(&self) -> &str {
            "wait-plus-patience"
        }

        fn sender(&self, input: bool) -> BoxedAutomaton<bool, bool> {
            Box::new(SddSender::new(receiver_id(), input))
        }

        fn receiver(&self) -> BoxedAutomaton<bool, bool> {
            Box::new(PatientSpSddReceiver::new(sender_id(), self.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use candidates::{PatientWait, WaitOrSuspect};

    #[test]
    fn natural_candidate_is_refuted_by_validity() {
        let report = refute(&WaitOrSuspect, 1_000);
        assert_eq!(report.base_decision, Some(false), "defaults to 0 in r0");
        match &report.refutation {
            SddRefutation::Validity {
                input,
                decided,
                log,
            } => {
                assert!(*input);
                assert!(!(*decided));
                assert_eq!(step_count(log, ProcessId::new(0)), 1, "sender stepped once");
            }
            other => panic!("expected validity refutation, got {other:?}"),
        }
        let text = report.to_string();
        assert!(text.contains("Validity violated"));
    }

    #[test]
    fn patience_only_delays_the_defeat() {
        for patience in [0, 1, 7, 50] {
            let report = refute(&PatientWait(patience), 10_000);
            assert!(matches!(report.refutation, SddRefutation::Validity { .. }));
        }
    }

    #[test]
    fn non_deciding_candidate_hits_termination() {
        use ssp_sim::StepAutomaton;

        /// A head-in-the-sand candidate that waits for the message
        /// forever, ignoring the detector.
        #[derive(Debug, Clone, Copy, Default)]
        struct WaitForever;

        impl SddCandidate for WaitForever {
            type Msg = bool;
            fn name(&self) -> &str {
                "wait-forever"
            }
            fn sender(&self, input: bool) -> BoxedAutomaton<bool, bool> {
                Box::new(ssp_algos::SddSender::new(receiver_id(), input))
            }
            fn receiver(&self) -> BoxedAutomaton<bool, bool> {
                #[derive(Debug)]
                struct R(Option<bool>);
                impl StepAutomaton for R {
                    type Msg = bool;
                    type Output = bool;
                    fn step(
                        &mut self,
                        ctx: ssp_sim::StepContext<'_, bool>,
                    ) -> Option<(ProcessId, bool)> {
                        if let Some(env) = ctx.received.first() {
                            self.0 = Some(env.payload);
                        }
                        None
                    }
                    fn output(&self) -> Option<bool> {
                        self.0
                    }
                }
                Box::new(R(None))
            }
        }

        let report = refute(&WaitForever, 200);
        assert!(matches!(report.refutation, SddRefutation::Termination));
        assert!(report.to_string().contains("Termination violated"));
    }
}
