//! Emulating the round models on the step-level models (§4.1–§4.2).
//!
//! * [`RsOnSs`] — runs a [`RoundProcess`] on the `SS` step executor.
//!   Following §4.1, round `r` consists of `n` send steps followed by
//!   `k` null steps, where `k = k(n, Φ, Δ, r)`; by the end of the null
//!   steps, every round-`r` message from a sender that is still alive
//!   has been force-delivered by the `Δ` bound. The budget recurrence
//!   is
//!   `K_r = (Φ+1)·(K_{r-1} + n) + Δ + 1` (cumulative steps by the end
//!   of round `r`): when I reach own-step `(Φ+1)·(K_{r-1}+n)`, process
//!   synchrony guarantees every alive peer has completed its round-`r`
//!   sends (it takes at least one step per `Φ+1` of mine), and message
//!   synchrony delivers their messages within `Δ` further steps.
//!   Note `k` grows geometrically with `r` — the price of lock-step
//!   emulation without acknowledgements, and the reason the paper
//!   keeps `k` abstract.
//!
//! * [`RwsOnSp`] — runs a [`RoundProcess`] on the `SP` step executor.
//!   Following §4.2, after its send steps a process keeps executing
//!   null steps until, for every peer, it has received that peer's
//!   round message *or* its perfect detector suspects the peer. This
//!   adaptive rule terminates (completeness) and never mistakes an
//!   alive peer for crashed (accuracy), but a crashed peer's sent
//!   message may be skipped — a *pending* message. Lemma 4.1 shows the
//!   resulting rounds satisfy weak round synchrony, which
//!   `ssp-lab`'s property tests verify on these very emulations.

use core::fmt;

use ssp_model::{process::all_processes, ProcessId, ProcessSet, Round};

use ssp_sim::{StepAutomaton, StepContext};

use crate::algorithm::RoundProcess;

/// Wire format of the emulations: a round-tagged, possibly null
/// payload. Null payloads exist so that `RWS` receivers can tell
/// "alive peer with nothing to say" apart from "crashed peer".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmuMsg<M> {
    /// The round this message belongs to.
    pub round: u32,
    /// The algorithm-level payload (`None` = null message).
    pub payload: Option<M>,
}

/// Cumulative step budget `K_r`: the own-step count by which a process
/// emulating `RS` on `SS` finishes round `r`.
///
/// `K_0 = 0`, `K_r = (Φ+1)·(K_{r-1} + n) + Δ + 1`.
///
/// # Examples
///
/// ```
/// use ssp_rounds::emulation::cumulative_round_budget;
///
/// // Φ=1, Δ=1, n=3: K_1 = 2·3+2 = 8, K_2 = 2·11+2 = 24.
/// assert_eq!(cumulative_round_budget(1, 1, 3, 1), 8);
/// assert_eq!(cumulative_round_budget(1, 1, 3, 2), 24);
/// assert_eq!(cumulative_round_budget(1, 1, 3, 0), 0);
/// ```
#[must_use]
pub fn cumulative_round_budget(phi: u64, delta: u64, n: usize, r: u32) -> u64 {
    let mut k = 0u64;
    for _ in 0..r {
        k = (phi + 1) * (k + n as u64) + delta + 1;
    }
    k
}

/// The round during which own-step `step` falls, for the `RS`-on-`SS`
/// schedule (1-based; steps at or beyond the horizon's budget return
/// `horizon + 1`).
#[must_use]
pub fn round_of_step(phi: u64, delta: u64, n: usize, horizon: u32, step: u64) -> u32 {
    for r in 1..=horizon {
        if step < cumulative_round_budget(phi, delta, n, r) {
            return r;
        }
    }
    horizon + 1
}

/// A [`RoundProcess`] adapted to the `SS` step model (§4.1).
pub struct RsOnSs<P: RoundProcess> {
    me: ProcessId,
    n: usize,
    phi: u64,
    delta: u64,
    horizon: u32,
    proc: P,
    round: u32,
    /// `store[r-1][q]`: round-`r` payload received from `q`.
    store: Vec<Vec<Option<P::Msg>>>,
}

impl<P: RoundProcess> RsOnSs<P> {
    /// Wraps `proc` (the automaton of process `me` among `n`) for
    /// `horizon` rounds on an `SS` system with bounds `(phi, delta)`.
    #[must_use]
    pub fn new(proc: P, me: ProcessId, n: usize, horizon: u32, phi: u64, delta: u64) -> Self {
        RsOnSs {
            me,
            n,
            phi,
            delta,
            horizon,
            proc,
            round: 1,
            store: vec![vec![None; n]; horizon as usize],
        }
    }

    fn absorb(&mut self, src: ProcessId, msg: &EmuMsg<P::Msg>) {
        if (1..=self.horizon).contains(&msg.round) {
            if let Some(payload) = &msg.payload {
                self.store[(msg.round - 1) as usize][src.index()] = Some(payload.clone());
            }
        }
    }
}

impl<P: RoundProcess> fmt::Debug for RsOnSs<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsOnSs")
            .field("me", &self.me)
            .field("round", &self.round)
            .field("proc", &self.proc)
            .finish_non_exhaustive()
    }
}

impl<P: RoundProcess> StepAutomaton for RsOnSs<P>
where
    P::Msg: 'static,
    P::Value: PartialEq,
{
    type Msg = EmuMsg<P::Msg>;
    type Output = (P::Value, Round);

    fn step(&mut self, ctx: StepContext<'_, Self::Msg>) -> Option<(ProcessId, Self::Msg)> {
        for env in ctx.received {
            let (src, payload) = (env.src, env.payload.clone());
            self.absorb(src, &payload);
        }
        if self.round > self.horizon {
            return None;
        }
        let r = self.round;
        let base = cumulative_round_budget(self.phi, self.delta, self.n, r - 1);
        let end = cumulative_round_budget(self.phi, self.delta, self.n, r);
        let offset = ctx.own_step - base;
        let mut send = None;
        if offset < self.n as u64 {
            let dst = ProcessId::new(offset as usize);
            let payload = self.proc.msgs(Round::new(r), dst);
            if dst == self.me {
                if let Some(p) = payload {
                    self.store[(r - 1) as usize][self.me.index()] = Some(p);
                }
            } else if payload.is_some() {
                send = Some((dst, EmuMsg { round: r, payload }));
            }
        }
        if ctx.own_step + 1 == end {
            // Last step of the round: every alive sender's round-r
            // message has arrived (see module docs); apply trans.
            let received = std::mem::take(&mut self.store[(r - 1) as usize]);
            self.proc.trans(Round::new(r), &received);
            self.store[(r - 1) as usize] = received; // keep for inspection
            self.round += 1;
        }
        send
    }

    fn output(&self) -> Option<(P::Value, Round)> {
        self.proc.decision()
    }
}

/// A [`RoundProcess`] adapted to the `SP` step model (§4.2):
/// receive-until-heard-or-suspected.
pub struct RwsOnSp<P: RoundProcess> {
    me: ProcessId,
    n: usize,
    horizon: u32,
    proc: P,
    round: u32,
    sent_upto: usize,
    /// `store[r-1][q]`: round-`r` payload received from `q`.
    store: Vec<Vec<Option<P::Msg>>>,
    /// `heard[r-1]`: peers whose round-`r` message (null or not) arrived.
    heard: Vec<ProcessSet>,
}

impl<P: RoundProcess> RwsOnSp<P> {
    /// Wraps `proc` for `horizon` rounds on an `SP` system.
    #[must_use]
    pub fn new(proc: P, me: ProcessId, n: usize, horizon: u32) -> Self {
        RwsOnSp {
            me,
            n,
            horizon,
            proc,
            round: 1,
            sent_upto: 0,
            store: vec![vec![None; n]; horizon as usize],
            heard: vec![ProcessSet::empty(); horizon as usize],
        }
    }

    fn absorb(&mut self, src: ProcessId, msg: &EmuMsg<P::Msg>) {
        if (1..=self.horizon).contains(&msg.round) {
            // Late arrivals for rounds I already closed are *pending*
            // messages: recorded nowhere, exactly as §4.2 prescribes.
            if msg.round < self.round {
                return;
            }
            self.heard[(msg.round - 1) as usize].insert(src);
            if let Some(payload) = &msg.payload {
                self.store[(msg.round - 1) as usize][src.index()] = Some(payload.clone());
            }
        }
    }
}

impl<P: RoundProcess> fmt::Debug for RwsOnSp<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwsOnSp")
            .field("me", &self.me)
            .field("round", &self.round)
            .field("proc", &self.proc)
            .finish_non_exhaustive()
    }
}

impl<P: RoundProcess> StepAutomaton for RwsOnSp<P>
where
    P::Msg: 'static,
    P::Value: PartialEq,
{
    type Msg = EmuMsg<P::Msg>;
    type Output = (P::Value, Round);

    fn step(&mut self, ctx: StepContext<'_, Self::Msg>) -> Option<(ProcessId, Self::Msg)> {
        for env in ctx.received {
            let (src, payload) = (env.src, env.payload.clone());
            self.absorb(src, &payload);
        }
        if self.round > self.horizon {
            return None;
        }
        let r = self.round;
        // Send phase: one destination per step; nulls are sent
        // explicitly so receivers can stop waiting for me.
        if self.sent_upto < self.n {
            let dst = ProcessId::new(self.sent_upto);
            self.sent_upto += 1;
            let payload = self.proc.msgs(Round::new(r), dst);
            if dst == self.me {
                self.heard[(r - 1) as usize].insert(self.me);
                if let Some(p) = payload {
                    self.store[(r - 1) as usize][self.me.index()] = Some(p);
                }
                return None;
            }
            return Some((dst, EmuMsg { round: r, payload }));
        }
        // Receive phase: wait until heard-from or suspected, for all.
        let satisfied = all_processes(self.n)
            .all(|q| self.heard[(r - 1) as usize].contains(q) || ctx.suspects.contains(q));
        if satisfied {
            let received = std::mem::take(&mut self.store[(r - 1) as usize]);
            self.proc.trans(Round::new(r), &received);
            self.store[(r - 1) as usize] = received;
            self.round += 1;
            self.sent_upto = 0;
        }
        None
    }

    fn output(&self) -> Option<(P::Value, Round)> {
        self.proc.decision()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_model::Decision;

    /// One-round broadcast-and-min test process.
    #[derive(Debug)]
    struct OneShotMinProcess {
        input: u64,
        decision: Decision<u64>,
    }

    impl RoundProcess for OneShotMinProcess {
        type Msg = u64;
        type Value = u64;

        fn msgs(&self, round: Round, _dst: ProcessId) -> Option<u64> {
            (round == Round::FIRST).then_some(self.input)
        }

        fn trans(&mut self, round: Round, received: &[Option<u64>]) {
            if round == Round::FIRST {
                let min = received
                    .iter()
                    .flatten()
                    .copied()
                    .chain(std::iter::once(self.input))
                    .min()
                    .expect("nonempty");
                self.decision.decide(min, round).expect("single decision");
            }
        }

        fn decision(&self) -> Option<(u64, Round)> {
            self.decision.clone().into_inner()
        }
    }

    fn spawn(me: usize, input: u64) -> OneShotMinProcess {
        let _ = me;
        OneShotMinProcess {
            input,
            decision: Decision::unknown(),
        }
    }

    #[test]
    fn budget_is_monotone_and_grows() {
        let mut prev = 0;
        for r in 1..6 {
            let k = cumulative_round_budget(1, 2, 4, r);
            assert!(k > prev);
            prev = k;
        }
        assert_eq!(round_of_step(1, 1, 3, 2, 0), 1);
        assert_eq!(round_of_step(1, 1, 3, 2, 7), 1);
        assert_eq!(round_of_step(1, 1, 3, 2, 8), 2);
        assert_eq!(round_of_step(1, 1, 3, 2, 23), 2);
        assert_eq!(round_of_step(1, 1, 3, 2, 24), 3);
    }

    #[test]
    fn rs_on_ss_full_run_reaches_agreement() {
        use ssp_sim::{run, BoxedAutomaton, FairAdversary, ModelKind};
        let n = 3;
        let (phi, delta) = (1, 1);
        let inputs = [5u64, 2, 9];
        let automata: Vec<BoxedAutomaton<EmuMsg<u64>, (u64, Round)>> = (0..n)
            .map(|i| {
                Box::new(RsOnSs::new(
                    spawn(i, inputs[i]),
                    ProcessId::new(i),
                    n,
                    1,
                    phi,
                    delta,
                )) as _
            })
            .collect();
        let mut adv = FairAdversary::new(n, 10_000);
        let result = run(ModelKind::ss(phi, delta), automata, &mut adv, 100_000).unwrap();
        for i in 0..n {
            assert_eq!(
                result.outputs[i],
                Some((2, Round::FIRST)),
                "process {i} must decide the global minimum at round 1"
            );
        }
        ssp_sim::validate_ss(&result.trace, phi, delta).unwrap();
    }

    #[test]
    fn rws_on_sp_full_run_reaches_agreement() {
        use ssp_sim::{run, BoxedAutomaton, DetectionDelays, FairAdversary, ModelKind};
        let n = 3;
        let inputs = [5u64, 2, 9];
        let automata: Vec<BoxedAutomaton<EmuMsg<u64>, (u64, Round)>> = (0..n)
            .map(|i| Box::new(RwsOnSp::new(spawn(i, inputs[i]), ProcessId::new(i), n, 1)) as _)
            .collect();
        let mut adv = FairAdversary::new(n, 10_000);
        let result = run(
            ModelKind::sp(DetectionDelays::immediate(n)),
            automata,
            &mut adv,
            100_000,
        )
        .unwrap();
        for i in 0..n {
            assert_eq!(result.outputs[i], Some((2, Round::FIRST)));
        }
    }

    #[test]
    fn rws_on_sp_suspected_crash_lets_round_finish() {
        use ssp_sim::{run, BoxedAutomaton, DetectionDelays, FairAdversary, ModelKind};
        let n = 3;
        let inputs = [1u64, 5, 9];
        let automata: Vec<BoxedAutomaton<EmuMsg<u64>, (u64, Round)>> = (0..n)
            .map(|i| Box::new(RwsOnSp::new(spawn(i, inputs[i]), ProcessId::new(i), n, 1)) as _)
            .collect();
        // p1 (holding the minimum) is initially dead; others must not
        // block forever: the detector eventually reports it.
        let mut adv = FairAdversary::new(n, 10_000).with_crash(ProcessId::new(0), 0);
        let result = run(
            ModelKind::sp(DetectionDelays::uniform(n, 3)),
            automata,
            &mut adv,
            100_000,
        )
        .unwrap();
        assert_eq!(result.outputs[0], None, "dead process has no output");
        assert_eq!(result.outputs[1], Some((5, Round::FIRST)));
        assert_eq!(result.outputs[2], Some((5, Round::FIRST)));
    }
}
