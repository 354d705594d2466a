//! Executable version of §3's opening claim: *"In the synchronous
//! model, detecting failures perfectly is easy: with a simple time-out
//! mechanism whose periods depend on the `Δ` and `Φ` bounds, one can
//! implement a perfect failure detector."*
//!
//! [`HeartbeatProcess`] runs in the `SS` step executor, cycling
//! heartbeats to its peers and suspecting a peer once it has been
//! silent for more than `(Φ+1)·(n−1) + Δ` of the observer's own steps —
//! sound because an alive peer addresses every other peer once per
//! `n−1` of its steps, takes at least one step per `Φ+1` of the
//! observer's, and its message is force-delivered within `Δ`. A
//! message from a suspected peer retracts the suspicion and doubles
//! that peer's bound; under the sound `SS` bound this never happens.
//! The same process, started with an optimistic bound, is the `◇P`
//! construction of [`crate::dls_bridge`].
//!
//! [`run_heartbeat_experiment`] executes a crash scenario, collects
//! each observer's suspicion history on the global clock, and returns
//! it with the realized failure pattern so the Chandra–Toueg property
//! checkers of `ssp-fd` can certify the result as `P`.

use ssp_fd::FdHistory;
use ssp_model::{FailurePattern, ProcessId, ProcessSet, RunEvent, Time};
use ssp_sim::{
    run, Adversary, BoxedAutomaton, FairAdversary, ModelKind, RandomAdversary, StepAutomaton,
    StepContext,
};

/// The silence bound, in observer own-steps: `(Φ+1)·(n−1) + Δ`.
#[must_use]
pub fn heartbeat_silence_bound(phi: u64, delta: u64, n: usize) -> u64 {
    (phi + 1) * (n as u64 - 1) + delta
}

/// A heartbeat-and-timeout process with a per-peer silence bound that
/// doubles whenever a suspicion turns out false.
#[derive(Debug)]
pub struct HeartbeatProcess {
    me: ProcessId,
    n: usize,
    /// Current per-peer silence bound, in own-steps.
    bound: Vec<u64>,
    /// Own-step at which we last heard from each peer (start counts as 0).
    last_heard: Vec<u64>,
    suspects: ProcessSet,
    /// Cumulative count of retractions (false suspicions corrected).
    retractions: u64,
}

impl HeartbeatProcess {
    /// Creates the heartbeat process for observer `me` among `n`
    /// processes, tolerating `bound` own-steps of silence per peer —
    /// [`heartbeat_silence_bound`] for `P` in `SS`.
    #[must_use]
    pub fn new(me: ProcessId, n: usize, bound: u64) -> Self {
        HeartbeatProcess {
            me,
            n,
            bound: vec![bound.max(1); n],
            last_heard: vec![0; n],
            suspects: ProcessSet::empty(),
            retractions: 0,
        }
    }

    /// The observer's current suspicion set.
    #[must_use]
    pub fn suspects(&self) -> ProcessSet {
        self.suspects
    }

    /// How many times a suspicion was retracted (evidence that the
    /// bound was unsound for the schedule).
    #[must_use]
    pub fn retractions(&self) -> u64 {
        self.retractions
    }

    /// The receive and timeout phases of the observer's step
    /// `own_step`, in which the heartbeats of `heard` arrived.
    fn hear(&mut self, heard: ProcessSet, own_step: u64) {
        for q in heard.iter() {
            self.last_heard[q.index()] = own_step;
            if self.suspects.remove(q) {
                // False suspicion: adapt.
                self.retractions += 1;
                self.bound[q.index()] = self.bound[q.index()].saturating_mul(2);
            }
        }
        for i in 0..self.n {
            let q = ProcessId::new(i);
            if q != self.me && own_step.saturating_sub(self.last_heard[i]) > self.bound[i] {
                self.suspects.insert(q);
            }
        }
    }
}

impl StepAutomaton for HeartbeatProcess {
    type Msg = ();
    /// The automaton never "finishes"; its output stays `None`.
    type Output = ();

    fn step(&mut self, ctx: StepContext<'_, ()>) -> Option<(ProcessId, ())> {
        self.hear(ctx.received.iter().map(|e| e.src).collect(), ctx.own_step);
        // Cycle heartbeats over the n−1 peers.
        if self.n <= 1 {
            return None;
        }
        let slot = (ctx.own_step % (self.n as u64 - 1)) as usize;
        let peer = (self.me.index() + 1 + slot) % self.n;
        Some((ProcessId::new(peer), ()))
    }

    fn output(&self) -> Option<()> {
        None
    }
}

/// Outcome of a heartbeat experiment: the suspicion histories (indexed
/// by the global clock) and the realized failure pattern, ready for
/// [`ssp_fd::classify`].
#[derive(Debug)]
pub struct HeartbeatExperiment {
    /// Suspicion history of every observer, on the global clock.
    pub history: FdHistory,
    /// The realized failure pattern.
    pub pattern: FailurePattern,
    /// Global clock horizon of the run.
    pub horizon: Time,
    /// Total suspicion retractions across observers — nonzero iff some
    /// observer's bound was fooled.
    pub retractions: u64,
}

/// Runs `n` heartbeat processes with initial silence bound `bound`
/// under `model` and `adversary`, then rebuilds each observer's
/// suspicion history on the global clock by replaying the heartbeat
/// logic over the senders each recorded step heard from.
///
/// # Panics
///
/// Panics if the executor rejects a schedule `adversary` chose.
pub(crate) fn run_heartbeats(
    model: ModelKind,
    n: usize,
    bound: u64,
    adversary: &mut dyn Adversary<()>,
    event_cap: u64,
) -> HeartbeatExperiment {
    let spawn = || (0..n).map(|i| HeartbeatProcess::new(ProcessId::new(i), n, bound));
    let automata: Vec<BoxedAutomaton<(), ()>> = spawn().map(|p| Box::new(p) as _).collect();
    let result = run(model, automata, adversary, event_cap)
        .expect("heartbeat schedules are legal in their model");

    let mut shadows: Vec<HeartbeatProcess> = spawn().collect();
    let mut history = FdHistory::new(n);
    let mut horizon = Time::ZERO;
    for ev in result.log.events() {
        if let RunEvent::Close {
            process: Some(p),
            stamp: Some(stamp),
            heard,
            ..
        } = ev
        {
            let shadow = &mut shadows[p.index()];
            let before = shadow.suspects();
            shadow.hear(heard.rows()[0], stamp.own_step);
            if shadow.suspects() != before {
                history.set(*p, stamp.time, shadow.suspects());
            }
            horizon = horizon.max(stamp.time);
        }
    }
    HeartbeatExperiment {
        history,
        pattern: result.pattern,
        horizon,
        retractions: shadows.iter().map(HeartbeatProcess::retractions).sum(),
    }
}

/// Runs `n` heartbeat processes under `SS(phi, delta)` for `events`
/// scheduler events; `crash_after_steps[i] = Some(k)` crashes process
/// `i` right after its `k`-th step.
///
/// # Panics
///
/// Panics if the executor rejects the (always legal) fair schedule.
#[must_use]
pub fn run_heartbeat_experiment(
    n: usize,
    phi: u64,
    delta: u64,
    crash_after_steps: &[Option<u64>],
    events: u64,
) -> HeartbeatExperiment {
    run_heartbeat_experiment_seeded(n, phi, delta, crash_after_steps, events, None)
}

/// Like [`run_heartbeat_experiment`], but scheduled by a seeded random
/// (yet `SS`-legal) adversary when `seed` is `Some` — the silence bound
/// must be sound under *every* legal schedule, not just round-robin.
#[must_use]
pub fn run_heartbeat_experiment_seeded(
    n: usize,
    phi: u64,
    delta: u64,
    crash_after_steps: &[Option<u64>],
    events: u64,
    seed: Option<u64>,
) -> HeartbeatExperiment {
    let crashes = crash_after_steps
        .iter()
        .enumerate()
        .filter_map(|(i, quota)| quota.map(|q| (ProcessId::new(i), q)));
    let model = ModelKind::ss(phi, delta);
    let bound = heartbeat_silence_bound(phi, delta, n);
    match seed {
        None => {
            let mut adv = crashes.fold(FairAdversary::new(n, events), |a, (p, q)| {
                a.with_crash(p, q)
            });
            run_heartbeats(model, n, bound, &mut adv, events + 10)
        }
        Some(seed) => {
            let mut adv = crashes.fold(RandomAdversary::new(n, events, seed), |a, (p, q)| {
                a.with_crash(p, q)
            });
            run_heartbeats(model, n, bound, &mut adv, events + 10)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_fd::classify;

    #[test]
    fn failure_free_run_never_suspects() {
        let exp = run_heartbeat_experiment(3, 1, 1, &[None, None, None], 600);
        assert_eq!(exp.retractions, 0);
        let props = classify(&exp.pattern, &exp.history, exp.horizon);
        assert!(props.is_perfect());
        for i in 0..3 {
            assert!(exp.history.query(ProcessId::new(i), exp.horizon).is_empty());
        }
    }

    #[test]
    fn crashed_process_is_eventually_suspected_by_all() {
        let exp = run_heartbeat_experiment(3, 1, 1, &[None, Some(5), None], 800);
        assert_eq!(exp.retractions, 0);
        let props = classify(&exp.pattern, &exp.history, exp.horizon);
        assert!(props.strong_completeness, "crash must be detected: {props}");
        assert!(props.strong_accuracy, "no false suspicion: {props}");
        assert!(props.is_perfect());
    }

    #[test]
    fn initially_dead_process_detected_too() {
        let exp = run_heartbeat_experiment(4, 2, 3, &[Some(0), None, None, None], 3_000);
        assert_eq!(exp.retractions, 0);
        let props = classify(&exp.pattern, &exp.history, exp.horizon);
        assert!(props.is_perfect(), "{props}");
    }

    #[test]
    fn bound_formula() {
        assert_eq!(heartbeat_silence_bound(1, 1, 3), 5);
        assert_eq!(heartbeat_silence_bound(2, 4, 4), 13);
    }

    #[test]
    fn random_legal_schedules_never_break_accuracy() {
        // The §3 claim must survive adversarial (but legal) scheduling:
        // no false suspicion, and crashed processes eventually caught.
        for seed in 0..12u64 {
            let crash = [None, Some(seed % 7), None];
            let exp = run_heartbeat_experiment_seeded(3, 2, 2, &crash, 2_500, Some(seed));
            assert_eq!(exp.retractions, 0, "seed {seed}");
            let props = classify(&exp.pattern, &exp.history, exp.horizon);
            assert!(props.strong_accuracy, "seed {seed}: {props}");
            assert!(props.strong_completeness, "seed {seed}: {props}");
        }
    }
}
