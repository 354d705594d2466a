//! Chandra–Toueg rotating-coordinator consensus with a `◇S`-class
//! failure detector — the flagship algorithm of the failure-detector
//! approach the paper compares against (its reference \[6\]).
//!
//! Requires a majority of correct processes (`t < n/2`). Asynchronous
//! rounds, coordinator `c_r = p_{((r−1) mod n) + 1}`:
//!
//! 1. everyone sends its `(estimate, stamp)` to `c_r`;
//! 2. `c_r` collects a majority, adopts the estimate with the highest
//!    stamp, and broadcasts it as the round's proposal;
//! 3. a participant that receives the proposal adopts it (stamping it
//!    with `r`) and acks; one whose detector suspects `c_r` nacks and
//!    moves on;
//! 4. on a majority of acks, `c_r` decides and reliably broadcasts the
//!    decision (every receiver re-forwards once, then decides).
//!
//! Safety (uniform agreement + validity) needs only the majority
//! intersection and the stamp ("locking") rule — no detector property
//! at all. Termination needs `◇S`'s eventual weak accuracy: some
//! correct process is eventually never suspected, and when the
//! rotation reaches it everyone acks. The paper's point sits right
//! here: `P` (let alone `◇S`) bounds *whether* you learn of a crash,
//! never *when* relative to in-flight messages — so even this
//! algorithm cannot decide in round 1 of every failure-free run, while
//! `RS`'s `A1` can.
//!
//! Implemented as a message-driven [`StepAutomaton`] with an outbox
//! (the §2.2 step sends at most one message), so it runs unchanged on
//! every `ssp-sim` model that supplies detector values —
//! [`ModelKind::Fd`] with any `◇S`-compatible history, or
//! [`ModelKind::Sp`].
//!
//! [`ModelKind::Fd`]: ssp_sim::ModelKind
//! [`ModelKind::Sp`]: ssp_sim::ModelKind

use std::collections::{HashMap, VecDeque};

use ssp_model::{Decision, ProcessId, Round, Value};
use ssp_rounds::{RoundAlgorithm, RoundProcess, ValueSymmetric};
use ssp_sim::{StepAutomaton, StepContext};

/// Wire format of the Chandra–Toueg protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtMsg<V> {
    /// Phase 1: `(round, estimate, stamp)` to the coordinator.
    Estimate(u64, V, u64),
    /// Phase 2: the coordinator's proposal for the round.
    Proposal(u64, V),
    /// Phase 3: accept the proposal.
    Ack(u64),
    /// Phase 3: the coordinator is suspected; move on.
    Nack(u64),
    /// Phase 4: reliable broadcast of the decision.
    Decide(V),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting to send the round's estimate.
    Send,
    /// Waiting for the coordinator's proposal (or suspicion).
    WaitProposal,
}

/// One process of the Chandra–Toueg protocol.
#[derive(Debug)]
pub struct CtProcess<V> {
    me: ProcessId,
    n: usize,
    round: u64,
    phase: Phase,
    estimate: V,
    stamp: u64,
    decision: Option<V>,
    decide_forwarded: bool,
    outbox: VecDeque<(ProcessId, CtMsg<V>)>,
    /// Coordinator bookkeeping, keyed by round (messages may arrive
    /// before this process reaches the round it coordinates).
    estimates: HashMap<u64, Vec<(V, u64)>>,
    acks: HashMap<u64, (usize, usize)>, // (acks, nacks)
    proposed: HashMap<u64, bool>,
    concluded: HashMap<u64, bool>,
    /// Proposals received early (we were still in an older round).
    proposals: HashMap<u64, V>,
}

impl<V: Value> CtProcess<V> {
    /// Creates process `me` of `n` with the given input.
    ///
    /// # Panics
    ///
    /// Panics unless `n ≥ 3` (a majority of correct processes must be
    /// possible with at least one failure tolerated).
    #[must_use]
    pub fn new(me: ProcessId, n: usize, input: V) -> Self {
        assert!(n >= 3, "Chandra–Toueg needs n ≥ 3 (majorities)");
        CtProcess {
            me,
            n,
            round: 1,
            phase: Phase::Send,
            estimate: input,
            stamp: 0,
            decision: None,
            decide_forwarded: false,
            outbox: VecDeque::new(),
            estimates: HashMap::new(),
            acks: HashMap::new(),
            proposed: HashMap::new(),
            concluded: HashMap::new(),
            proposals: HashMap::new(),
        }
    }

    fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    fn coordinator(&self, round: u64) -> ProcessId {
        ProcessId::new(((round - 1) % self.n as u64) as usize)
    }

    fn broadcast(&mut self, msg: &CtMsg<V>) {
        for i in 0..self.n {
            let dst = ProcessId::new(i);
            if dst != self.me {
                self.outbox.push_back((dst, msg.clone()));
            }
        }
    }

    fn decide(&mut self, v: V) {
        if self.decision.is_none() {
            self.decision = Some(v.clone());
        }
        if !self.decide_forwarded {
            self.decide_forwarded = true;
            self.broadcast(&CtMsg::Decide(v));
        }
    }

    fn handle(&mut self, src: ProcessId, msg: CtMsg<V>) {
        match msg {
            CtMsg::Estimate(r, est, stamp) => {
                self.estimates.entry(r).or_default().push((est, stamp));
                let _ = src;
            }
            CtMsg::Proposal(r, est) => {
                self.proposals.insert(r, est);
            }
            CtMsg::Ack(r) => {
                self.acks.entry(r).or_default().0 += 1;
            }
            CtMsg::Nack(r) => {
                self.acks.entry(r).or_default().1 += 1;
            }
            CtMsg::Decide(v) => self.decide(v),
        }
    }

    /// Coordinator duties for every round this process coordinates.
    fn run_coordinator(&mut self) {
        // Only rounds we coordinate can have estimates addressed to us.
        let rounds: Vec<u64> = self
            .estimates
            .keys()
            .copied()
            .filter(|r| self.coordinator(*r) == self.me && !self.proposed.contains_key(r))
            .collect();
        for r in rounds {
            let ests = &self.estimates[&r];
            if ests.len() >= self.majority() {
                let best = ests
                    .iter()
                    .max_by_key(|(_, stamp)| *stamp)
                    .expect("nonempty majority")
                    .0
                    .clone();
                self.proposed.insert(r, true);
                self.proposals.insert(r, best.clone()); // self-delivery
                self.broadcast(&CtMsg::Proposal(r, best));
            }
        }
        let rounds: Vec<u64> = self
            .acks
            .keys()
            .copied()
            .filter(|r| self.coordinator(*r) == self.me && !self.concluded.contains_key(r))
            .collect();
        for r in rounds {
            let (acks, nacks) = self.acks[&r];
            if acks >= self.majority() {
                self.concluded.insert(r, true);
                let v = self.proposals[&r].clone();
                self.decide(v);
            } else if acks + nacks >= self.majority() {
                self.concluded.insert(r, true); // round failed; others moved on
            }
        }
    }

    /// Participant duties for the current round.
    fn run_participant(&mut self, suspects: ssp_model::ProcessSet) {
        if self.decision.is_some() {
            return;
        }
        let r = self.round;
        let coord = self.coordinator(r);
        match self.phase {
            Phase::Send => {
                let est = CtMsg::Estimate(r, self.estimate.clone(), self.stamp);
                if coord == self.me {
                    let CtMsg::Estimate(_, e, s) = est else {
                        unreachable!()
                    };
                    self.estimates.entry(r).or_default().push((e, s));
                } else {
                    self.outbox.push_back((coord, est));
                }
                self.phase = Phase::WaitProposal;
            }
            Phase::WaitProposal => {
                if let Some(proposal) = self.proposals.get(&r).cloned() {
                    self.estimate = proposal;
                    self.stamp = r;
                    if coord == self.me {
                        self.acks.entry(r).or_default().0 += 1;
                    } else {
                        self.outbox.push_back((coord, CtMsg::Ack(r)));
                    }
                    self.round += 1;
                    self.phase = Phase::Send;
                } else if suspects.contains(coord) {
                    if coord != self.me {
                        self.outbox.push_back((coord, CtMsg::Nack(r)));
                    }
                    self.round += 1;
                    self.phase = Phase::Send;
                }
            }
        }
    }
}

impl<V: Value> StepAutomaton for CtProcess<V> {
    type Msg = CtMsg<V>;
    type Output = V;

    fn step(&mut self, ctx: StepContext<'_, CtMsg<V>>) -> Option<(ProcessId, CtMsg<V>)> {
        for env in ctx.received {
            self.handle(env.src, env.payload.clone());
        }
        self.run_coordinator();
        self.run_participant(ctx.suspects);
        self.outbox.pop_front()
    }

    fn output(&self) -> Option<V> {
        self.decision.clone()
    }
}

/// Rotating-coordinator uniform consensus **in the round models** — a
/// synchronized cousin of Chandra–Toueg, safe in `RWS`.
///
/// Runs `t + 1` rounds; the round-`r` coordinator is `p_r`, which
/// broadcasts its current estimate. A receiver adopts the broadcast;
/// everyone decides its estimate after round `t + 1`.
///
/// * **Uniform agreement, even in `RWS`.** Among the `t + 1` distinct
///   coordinators some `p_{r*}` is correct, and in `RWS` a message can
///   be missing from a closed round only if its sender crashed
///   (perfect detector + Lemma 4.1) — so `p_{r*}`'s broadcast reaches
///   *every* process that closes round `r*`, collapsing all surviving
///   estimates to one value that later (adopting) coordinators can
///   only repeat. Decisions happen after the horizon, so there is no
///   decide-early-then-crash window for the §5.3 anomaly.
/// * **The price.** Every run — including failure-free ones — decides
///   at round `t + 1`, i.e. `Λ(CtRounds) = t + 1 ≥ 2`: the
///   Theorem 5.2 lower bound for `RWS` made concrete, and the `RWS`
///   baseline the engine benchmarks `A1`-in-`RS` against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtRounds;

/// Wire format of [`CtRounds`]: the coordinator's estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtRoundMsg<V>(pub V);

/// Per-process state of [`CtRounds`].
#[derive(Debug)]
pub struct CtRoundsProcess<V> {
    me: ProcessId,
    horizon: u32,
    estimate: V,
    decision: Decision<V>,
}

impl<V: Value> RoundProcess for CtRoundsProcess<V> {
    type Msg = CtRoundMsg<V>;
    type Value = V;

    fn msgs(&self, round: Round, _dst: ProcessId) -> Option<CtRoundMsg<V>> {
        if round.get() <= self.horizon && ProcessId::new((round.get() - 1) as usize) == self.me {
            Some(CtRoundMsg(self.estimate.clone()))
        } else {
            None
        }
    }

    fn trans(&mut self, round: Round, received: &[Option<CtRoundMsg<V>>]) {
        let coord = (round.get() - 1) as usize;
        if let Some(Some(CtRoundMsg(v))) = received.get(coord) {
            self.estimate = v.clone();
        }
        if round.get() == self.horizon {
            self.decision
                .decide(self.estimate.clone(), round)
                .expect("decides once, at the horizon");
        }
    }

    fn decision(&self) -> Option<(V, Round)> {
        self.decision.clone().into_inner()
    }
}

impl<V: Value> RoundAlgorithm<V> for CtRounds {
    type Process = CtRoundsProcess<V>;

    fn name(&self) -> &str {
        "CtRounds"
    }

    /// # Panics
    ///
    /// Panics unless `n > t`: the `t + 1` rounds need `t + 1` distinct
    /// coordinators.
    fn spawn(&self, me: ProcessId, n: usize, t: usize, input: V) -> CtRoundsProcess<V> {
        assert!(n > t, "CtRounds needs t + 1 distinct coordinators");
        CtRoundsProcess {
            me,
            horizon: t as u32 + 1,
            estimate: input,
            decision: Decision::unknown(),
        }
    }

    fn round_horizon(&self, _n: usize, t: usize) -> u32 {
        t as u32 + 1
    }
}

/// [`CtRounds`] stores and forwards estimates without inspecting them,
/// so it commutes with every relabeling of the value domain. It is
/// **not** [`ssp_rounds::SymmetricAlgorithm`]: the coordinator
/// rotation hard-codes process indices.
impl<V: Value> ValueSymmetric<V> for CtRounds {}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_fd::{strong_history, FdHistory};
    use ssp_model::{FailurePattern, Time};
    use ssp_sim::{run, BoxedAutomaton, FairAdversary, ModelKind, RandomAdversary};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn system(inputs: &[u64]) -> Vec<BoxedAutomaton<CtMsg<u64>, u64>> {
        let n = inputs.len();
        inputs
            .iter()
            .enumerate()
            .map(|(i, &v)| Box::new(CtProcess::new(p(i), n, v)) as _)
            .collect()
    }

    fn assert_uniform(outputs: &[Option<u64>], inputs: &[u64]) {
        let decided: Vec<u64> = outputs.iter().flatten().copied().collect();
        assert!(!decided.is_empty(), "someone must decide");
        assert!(
            decided.windows(2).all(|w| w[0] == w[1]),
            "uniform agreement: {outputs:?}"
        );
        assert!(inputs.contains(&decided[0]), "validity: {decided:?}");
    }

    #[test]
    fn failure_free_never_suspecting_decides_in_round_1() {
        let inputs = [7u64, 3, 9];
        let automata = system(&inputs);
        let history = FdHistory::new(3); // nobody ever suspected
        let mut adv = FairAdversary::new(3, 5_000);
        let result = run(ModelKind::fd(history), automata, &mut adv, 10_000).unwrap();
        // Round 1 concludes: everyone adopts the coordinator's proposal
        // (any majority estimate — stamps are all 0 in round 1).
        assert_uniform(&result.outputs, &inputs);
        assert!(result.outputs.iter().all(Option::is_some));
    }

    #[test]
    fn crashed_coordinator_is_rotated_past() {
        let inputs = [7u64, 3, 9];
        // p1 is initially dead and (eventually) suspected by everyone;
        // p2 is immune — round 2's coordinator succeeds.
        let mut pattern = FailurePattern::no_failures(3);
        pattern.crash(p(0), Time::ZERO);
        let history = strong_history(&pattern, 3, p(1), &[]);
        let automata = system(&inputs);
        let mut adv = FairAdversary::new(3, 10_000).with_crash(p(0), 0);
        let result = run(ModelKind::fd(history), automata, &mut adv, 20_000).unwrap();
        assert_eq!(
            result.outputs[0], None,
            "the dead coordinator never decides"
        );
        // Round 2 (coordinator p2) concludes with a survivor estimate.
        let survivors = [result.outputs[1], result.outputs[2]];
        assert!(survivors.iter().all(Option::is_some));
        assert_uniform(&result.outputs, &inputs);
        assert_ne!(survivors[0], Some(7), "the dead p1's input cannot win");
    }

    #[test]
    fn false_suspicions_delay_but_do_not_derail() {
        // ◇S history: p1 and p3 are permanently (wrongly) suspected by
        // everyone; p2 is immune. Nacks burn rounds 1 and 3, round 2
        // decides. Safety must hold throughout.
        let inputs = [7u64, 3, 9];
        let pattern = FailurePattern::no_failures(3);
        let mut history = strong_history(&pattern, 1, p(1), &[]);
        for observer in 0..3 {
            history.suspect_from(p(observer), p(0), Time::ZERO);
            history.suspect_from(p(observer), p(2), Time::ZERO);
        }
        let automata = system(&inputs);
        let mut adv = FairAdversary::new(3, 20_000);
        let result = run(ModelKind::fd(history), automata, &mut adv, 40_000).unwrap();
        assert_uniform(&result.outputs, &inputs);
    }

    #[test]
    fn uniform_under_random_schedules_and_one_crash() {
        for seed in 0..25u64 {
            let inputs = [4u64, 8, 2, 6, 1];
            let n = inputs.len();
            let victim = (seed % n as u64) as usize;
            let mut pattern = FailurePattern::no_failures(n);
            pattern.crash(p(victim), Time::new(seed % 30));
            // Immune process: someone other than the victim.
            let immune = p((victim + 1) % n);
            let history = strong_history(&pattern, 5, immune, &[]);
            let automata = system(&inputs);
            // Random legal schedules; deliver-all keeps liveness simple.
            let mut adv = RandomAdversary::new(n, 30_000, seed)
                .with_deliver_all_probability(1.0)
                .with_crash(p(victim), seed % 17);
            let result = run(ModelKind::fd(history), automata, &mut adv, 60_000)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let correct_outputs: Vec<Option<u64>> = result
                .outputs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != victim)
                .map(|(_, o)| *o)
                .collect();
            assert!(
                correct_outputs.iter().all(Option::is_some),
                "seed {seed}: all correct must decide: {:?}",
                result.outputs
            );
            assert_uniform(&result.outputs, &inputs);
        }
    }

    #[test]
    fn majority_locking_preserves_agreement_across_rounds() {
        // Round-1 coordinator p1 decides (majority acks) then crashes;
        // its Decide broadcast may be lost to the crash, but the
        // *stamped* estimate survives in a majority, so round 2's
        // proposal must carry the same value.
        // We approximate by letting p1 run long enough to decide, then
        // crashing it; the survivors' decisions must match p1's.
        let inputs = [7u64, 3, 9, 5, 2];
        let n = inputs.len();
        let pattern = {
            let mut f = FailurePattern::no_failures(n);
            f.crash(p(0), Time::new(40));
            f
        };
        let history = strong_history(&pattern, 3, p(1), &[]);
        let automata = system(&inputs);
        let mut adv = FairAdversary::new(n, 30_000).with_crash(p(0), 25);
        let result = run(ModelKind::fd(history), automata, &mut adv, 60_000).unwrap();
        assert_uniform(&result.outputs, &inputs);
    }

    #[test]
    #[should_panic(expected = "n ≥ 3")]
    fn rejects_tiny_systems() {
        let _ = CtProcess::new(p(0), 2, 1u64);
    }

    mod rounds {
        use super::*;
        use ssp_model::{
            check_uniform_consensus, check_uniform_consensus_strong, InitialConfig, ProcessSet,
            Round,
        };
        use ssp_rounds::{run_rs, run_rws, CrashSchedule, PendingChoice, RoundCrash};

        #[test]
        fn failure_free_decides_everyones_estimate_at_the_horizon() {
            let config = InitialConfig::new(vec![4u64, 9, 2]);
            let out = run_rs(&CtRounds, &config, 1, &CrashSchedule::none(3));
            check_uniform_consensus_strong(&out).unwrap();
            assert_eq!(
                out.latency_degree(),
                Some(2),
                "Λ(CtRounds) = t + 1, even failure-free"
            );
            for (_, o) in out.iter() {
                assert_eq!(o.decision, Some((4, Round::new(2))), "p1's estimate wins");
            }
        }

        #[test]
        fn crashed_first_coordinator_hands_over_to_the_second() {
            let config = InitialConfig::new(vec![4u64, 9, 2]);
            let mut schedule = CrashSchedule::none(3);
            schedule.crash(
                p(0),
                RoundCrash {
                    round: Round::FIRST,
                    sends_to: ProcessSet::empty(),
                },
            );
            let out = run_rs(&CtRounds, &config, 1, &schedule);
            check_uniform_consensus_strong(&out).unwrap();
            for q in [p(1), p(2)] {
                assert_eq!(out.outcome(q).decision, Some((9, Round::new(2))));
            }
        }

        #[test]
        fn partial_coordinator_broadcast_cannot_split_survivors() {
            // p1 reaches only p3 then crashes: p3 adopts 4, p2 keeps 9.
            // Round 2's coordinator p2 re-broadcasts 9 and everyone
            // (alive) converges on it.
            let config = InitialConfig::new(vec![4u64, 9, 2]);
            let mut schedule = CrashSchedule::none(3);
            schedule.crash(
                p(0),
                RoundCrash {
                    round: Round::FIRST,
                    sends_to: ProcessSet::singleton(p(2)),
                },
            );
            let out = run_rs(&CtRounds, &config, 1, &schedule);
            check_uniform_consensus_strong(&out).unwrap();
            for q in [p(1), p(2)] {
                assert_eq!(out.outcome(q).decision, Some((9, Round::new(2))));
            }
        }

        #[test]
        fn survives_the_rws_scenario_that_breaks_a1() {
            // §5.3 shape: the round-1 coordinator broadcasts, crashes in
            // round 2, and every round-1 copy is withheld as pending.
            // A1's p1 would have *decided* before crashing; CtRounds
            // decides only at the horizon, so uniformity holds.
            let config = InitialConfig::new(vec![10u64, 11, 12]);
            let mut schedule = CrashSchedule::none(3);
            schedule.crash(
                p(0),
                RoundCrash {
                    round: Round::new(2),
                    sends_to: ProcessSet::empty(),
                },
            );
            let mut pending = PendingChoice::none();
            for i in 1..3 {
                pending.withhold(Round::FIRST, p(0), p(i));
            }
            let out = run_rws(&CtRounds, &config, 1, &schedule, &pending).unwrap();
            check_uniform_consensus(&out).unwrap();
            for i in 1..3 {
                assert_eq!(out.outcome(p(i)).decision, Some((11, Round::new(2))));
            }
        }

        #[test]
        fn two_crash_instances_need_three_rounds() {
            let config = InitialConfig::new(vec![4u64, 9, 2, 7]);
            let out = run_rs(&CtRounds, &config, 2, &CrashSchedule::none(4));
            check_uniform_consensus_strong(&out).unwrap();
            assert_eq!(out.latency_degree(), Some(3), "t = 2 ⇒ horizon 3");
        }

        #[test]
        #[should_panic(expected = "distinct coordinators")]
        fn rejects_t_not_below_n() {
            let _ = RoundAlgorithm::<u64>::spawn(&CtRounds, p(0), 2, 2, 1);
        }
    }
}
