//! The Strongly Dependent Decision problem (§3).
//!
//! Two processes: a *sender* `p_i` with a binary input and a *receiver*
//! `p_j` that must decide, subject to Integrity, Validity ("if the
//! sender has not initially crashed, the only possible decision is its
//! input") and Termination.
//!
//! * In `SS` the problem is trivial ([`SddSender`] + [`SsSddReceiver`]):
//!   the sender transmits its value in its first step; the receiver
//!   executes `Φ + 1 + Δ` steps and decides the received value, or `0`
//!   if nothing arrived — sound because a silent sender after that many
//!   receiver steps *must* have crashed before sending (§3).
//! * In `SP` the problem is unsolvable (Theorem 3.1). [`SpSddReceiver`]
//!   is the natural attempt — wait until the sender's message arrives
//!   or the perfect detector suspects it — and `ssp-lab`'s
//!   [`Theorem 3.1 adversary`](../../ssp_lab/impossibility/index.html)
//!   defeats it (and every other candidate) by run surgery.

use ssp_model::ProcessId;
use ssp_sim::{StepAutomaton, StepContext};

/// The SDD sender: transmits its input bit to the receiver in its very
/// first step, then idles. Works in every model.
#[derive(Debug, Clone)]
pub struct SddSender {
    receiver: ProcessId,
    input: bool,
}

impl SddSender {
    /// Creates the sender with the given `input`, addressing `receiver`.
    #[must_use]
    pub fn new(receiver: ProcessId, input: bool) -> Self {
        SddSender { receiver, input }
    }

    /// The sender's input bit.
    #[must_use]
    pub fn input(&self) -> bool {
        self.input
    }
}

impl StepAutomaton for SddSender {
    type Msg = bool;
    type Output = bool;

    fn step(&mut self, ctx: StepContext<'_, bool>) -> Option<(ProcessId, bool)> {
        (ctx.own_step == 0).then_some((self.receiver, self.input))
    }

    fn output(&self) -> Option<bool> {
        None
    }
}

/// The `SS` receiver of §3: run `Φ + 1 + Δ` steps; decide the received
/// value, else `0`.
///
/// Soundness: if the sender is alive it takes its first step within the
/// receiver's first `Φ + 1` steps (process synchrony), and its message
/// is force-delivered within `Δ` further receiver steps (message
/// synchrony) — so silence after `Φ + 1 + Δ` steps proves the sender
/// crashed before sending, where Validity permits the default `0`.
#[derive(Debug, Clone)]
pub struct SsSddReceiver {
    sender: ProcessId,
    budget: u64,
    received: Option<bool>,
    decision: Option<bool>,
}

impl SsSddReceiver {
    /// Creates the receiver for an `SS` system with bounds `(phi, delta)`.
    ///
    /// # Panics
    ///
    /// Panics unless `phi ≥ 1` and `delta ≥ 1`.
    #[must_use]
    pub fn new(sender: ProcessId, phi: u64, delta: u64) -> Self {
        assert!(phi >= 1 && delta >= 1, "SS requires Φ ≥ 1 and Δ ≥ 1");
        SsSddReceiver {
            sender,
            budget: phi + 1 + delta,
            received: None,
            decision: None,
        }
    }
}

impl StepAutomaton for SsSddReceiver {
    type Msg = bool;
    type Output = bool;

    fn step(&mut self, ctx: StepContext<'_, bool>) -> Option<(ProcessId, bool)> {
        for env in ctx.received {
            if env.src == self.sender && self.received.is_none() {
                self.received = Some(env.payload);
            }
        }
        if self.decision.is_none() {
            if let Some(v) = self.received {
                self.decision = Some(v);
            } else if ctx.own_step + 1 >= self.budget {
                // Φ+1+Δ (possibly empty) steps elapsed without a message.
                self.decision = Some(false);
            }
        }
        None
    }

    fn output(&self) -> Option<bool> {
        self.decision
    }
}

/// The natural — and necessarily flawed — `SP` receiver: wait until the
/// sender's message arrives or the perfect detector suspects the
/// sender; decide the value or default to `0`.
///
/// Theorem 3.1 shows *no* `SP` algorithm can work; this one fails
/// because suspicion ("the sender has crashed") does not reveal whether
/// the sender managed to send first — its message may still be in
/// flight, arbitrarily delayed.
#[derive(Debug, Clone)]
pub struct SpSddReceiver {
    sender: ProcessId,
    received: Option<bool>,
    decision: Option<bool>,
}

impl SpSddReceiver {
    /// Creates the receiver.
    #[must_use]
    pub fn new(sender: ProcessId) -> Self {
        SpSddReceiver {
            sender,
            received: None,
            decision: None,
        }
    }
}

impl StepAutomaton for SpSddReceiver {
    type Msg = bool;
    type Output = bool;

    fn step(&mut self, ctx: StepContext<'_, bool>) -> Option<(ProcessId, bool)> {
        for env in ctx.received {
            if env.src == self.sender && self.received.is_none() {
                self.received = Some(env.payload);
            }
        }
        if self.decision.is_none() {
            if let Some(v) = self.received {
                self.decision = Some(v);
            } else if ctx.suspects.contains(self.sender) {
                self.decision = Some(false);
            }
        }
        None
    }

    fn output(&self) -> Option<bool> {
        self.decision
    }
}

/// A second `SP` candidate that waits for `patience` extra steps after
/// first suspecting the sender before defaulting — "surely the message
/// would have arrived by now". Equally doomed (delays are unbounded),
/// and useful to show the Theorem 3.1 adversary adapts to the
/// candidate rather than exploiting one fixed mistake.
#[derive(Debug, Clone)]
pub struct PatientSpSddReceiver {
    sender: ProcessId,
    patience: u64,
    suspected_at: Option<u64>,
    received: Option<bool>,
    decision: Option<bool>,
}

impl PatientSpSddReceiver {
    /// Creates the receiver with the given patience (extra steps after
    /// the first suspicion).
    #[must_use]
    pub fn new(sender: ProcessId, patience: u64) -> Self {
        PatientSpSddReceiver {
            sender,
            patience,
            suspected_at: None,
            received: None,
            decision: None,
        }
    }
}

impl StepAutomaton for PatientSpSddReceiver {
    type Msg = bool;
    type Output = bool;

    fn step(&mut self, ctx: StepContext<'_, bool>) -> Option<(ProcessId, bool)> {
        for env in ctx.received {
            if env.src == self.sender && self.received.is_none() {
                self.received = Some(env.payload);
            }
        }
        if self.suspected_at.is_none() && ctx.suspects.contains(self.sender) {
            self.suspected_at = Some(ctx.own_step);
        }
        if self.decision.is_none() {
            if let Some(v) = self.received {
                self.decision = Some(v);
            } else if let Some(s) = self.suspected_at {
                if ctx.own_step >= s + self.patience {
                    self.decision = Some(false);
                }
            }
        }
        None
    }

    fn output(&self) -> Option<bool> {
        self.decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_model::{check_sdd, SddOutcome};
    use ssp_sim::{
        run, BoxedAutomaton, DetectionDelays, FairAdversary, ModelKind, RandomAdversary,
    };

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn ss_pair(input: bool, phi: u64, delta: u64) -> Vec<BoxedAutomaton<bool, bool>> {
        vec![
            Box::new(SddSender::new(p(1), input)),
            Box::new(SsSddReceiver::new(p(0), phi, delta)),
        ]
    }

    fn outcome_of(result: &ssp_sim::RunResult<bool, bool>, input: bool) -> SddOutcome {
        SddOutcome {
            sender_input: input,
            sender_initially_dead: ssp_sim::step_count(&result.log, p(0)) == 0,
            receiver_correct: result.pattern.is_correct(p(1)),
            decision: result.outputs[1],
        }
    }

    #[test]
    fn ss_sdd_decides_senders_value_when_alive() {
        for input in [false, true] {
            for (phi, delta) in [(1, 1), (2, 3), (4, 1)] {
                let mut adv = FairAdversary::new(2, 200);
                let result = run(
                    ModelKind::ss(phi, delta),
                    ss_pair(input, phi, delta),
                    &mut adv,
                    1_000,
                )
                .unwrap();
                assert_eq!(result.outputs[1], Some(input), "Φ={phi}, Δ={delta}");
                check_sdd(&outcome_of(&result, input)).unwrap();
            }
        }
    }

    #[test]
    fn ss_sdd_defaults_to_zero_for_initially_dead_sender() {
        let (phi, delta) = (2, 2);
        let mut adv = FairAdversary::new(2, 200).with_crash(p(0), 0);
        let result = run(
            ModelKind::ss(phi, delta),
            ss_pair(true, phi, delta),
            &mut adv,
            1_000,
        )
        .unwrap();
        assert_eq!(result.outputs[1], Some(false));
        check_sdd(&outcome_of(&result, true)).unwrap();
    }

    #[test]
    fn ss_sdd_sender_crash_after_send_still_valid() {
        let (phi, delta) = (1, 2);
        // Sender takes exactly one step (the send) then crashes.
        let mut adv = FairAdversary::new(2, 200).with_crash(p(0), 1);
        let result = run(
            ModelKind::ss(phi, delta),
            ss_pair(true, phi, delta),
            &mut adv,
            1_000,
        )
        .unwrap();
        assert_eq!(result.outputs[1], Some(true), "sent value must win");
        check_sdd(&outcome_of(&result, true)).unwrap();
    }

    #[test]
    fn ss_sdd_sound_under_random_legal_schedules() {
        // The Φ+1+Δ rule must be sound under *every* SS schedule, not
        // just the round-robin one.
        for seed in 0..50u64 {
            let (phi, delta) = (2, 2);
            let input = seed % 2 == 0;
            let crash_step = seed % 4; // 0 = initially dead … 3 = late
            let mut adv = RandomAdversary::new(2, 400, seed).with_crash(p(0), crash_step);
            let result = run(
                ModelKind::ss(phi, delta),
                ss_pair(input, phi, delta),
                &mut adv,
                10_000,
            )
            .unwrap();
            check_sdd(&outcome_of(&result, input)).unwrap_or_else(|e| {
                panic!("seed {seed}: {e}\n{}", result.log.to_jsonl());
            });
        }
    }

    #[test]
    fn sp_receiver_works_when_detector_is_slow_enough() {
        // SpSddReceiver is fine in *lucky* runs — e.g. when the message
        // outraces the suspicion. (Theorem 3.1 says some run kills it,
        // not every run.)
        let automata: Vec<BoxedAutomaton<bool, bool>> = vec![
            Box::new(SddSender::new(p(1), true)),
            Box::new(SpSddReceiver::new(p(0))),
        ];
        let mut adv = FairAdversary::new(2, 200).with_crash(p(0), 1);
        let result = run(
            ModelKind::sp(DetectionDelays::uniform(50)),
            automata,
            &mut adv,
            1_000,
        )
        .unwrap();
        assert_eq!(result.outputs[1], Some(true));
    }

    #[test]
    fn sp_receiver_violates_validity_when_message_outrun_by_suspicion() {
        // The §3 phenomenon: sender sends then crashes; detection is
        // immediate but the message lingers. The receiver defaults to 0
        // although the sender (input 1) did take a step → Validity broken.
        use ssp_sim::{DeliveryChoice, Event, ScriptedAdversary};
        let automata: Vec<BoxedAutomaton<bool, bool>> = vec![
            Box::new(SddSender::new(p(1), true)),
            Box::new(SpSddReceiver::new(p(0))),
        ];
        let mut adv = ScriptedAdversary::new(
            vec![
                Event::Step(p(0)),  // sender sends, t=0
                Event::Crash(p(0)), // crashes at t=1
                Event::Step(p(1)),  // t=2: suspected (delay 0), msg withheld
                Event::Step(p(1)),  // message finally delivered — too late
            ],
            vec![
                DeliveryChoice::Nothing,
                DeliveryChoice::Nothing,
                DeliveryChoice::All,
            ],
        );
        let result = run(
            ModelKind::sp(DetectionDelays::immediate()),
            automata,
            &mut adv,
            100,
        )
        .unwrap();
        let outcome = outcome_of(&result, true);
        assert_eq!(result.outputs[1], Some(false), "defaulted despite the send");
        assert!(check_sdd(&outcome).is_err(), "validity violated");
    }

    #[test]
    fn patient_receiver_just_fails_later() {
        use ssp_sim::{DeliveryChoice, Event, ScriptedAdversary};
        let patience = 5;
        let automata: Vec<BoxedAutomaton<bool, bool>> = vec![
            Box::new(SddSender::new(p(1), true)),
            Box::new(PatientSpSddReceiver::new(p(0), patience)),
        ];
        let mut events = vec![Event::Step(p(0)), Event::Crash(p(0))];
        let mut deliveries = vec![DeliveryChoice::Nothing];
        // patience+1 receiver steps with the message withheld …
        for _ in 0..=patience {
            events.push(Event::Step(p(1)));
            deliveries.push(DeliveryChoice::Nothing);
        }
        // … then the adversary finally delivers (message was only delayed).
        events.push(Event::Step(p(1)));
        deliveries.push(DeliveryChoice::All);
        let mut adv = ScriptedAdversary::new(events, deliveries);
        let result = run(
            ModelKind::sp(DetectionDelays::immediate()),
            automata,
            &mut adv,
            100,
        )
        .unwrap();
        assert_eq!(result.outputs[1], Some(false));
        assert!(check_sdd(&outcome_of(&result, true)).is_err());
    }
}
