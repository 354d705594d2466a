//! The step-level executor for the asynchronous, `SS` and `SP` models.
//!
//! One engine drives all three models of §2; the [`ModelKind`] selects
//! which synchrony machinery is active:
//!
//! * [`ModelKind::Async`] — no constraints beyond the basics (crashed
//!   processes do not step);
//! * [`ModelKind::Ss`] — *process synchrony* (`Φ`): a process may not
//!   take `Φ+1` steps in a window where some alive process takes none
//!   (enforced online, violating choices are errors); and *message
//!   synchrony* (`Δ`): a message sent at schedule index `k` is force-
//!   delivered at the receiver's first step with index `l ≥ k+Δ`;
//! * [`ModelKind::Sp`] — each step gains a failure-detector query
//!   phase answered by a perfect detector whose per-pair detection
//!   delays ([`DetectionDelays`]) are finite but adversary-chosen.

use core::fmt;

use ssp_model::events::{DeliveryMatrix, Observer, RunEvent, RunLogObserver, StepStamp};
use ssp_model::{Buffer, Envelope, FailurePattern, ProcessId, ProcessSet, StepIndex, Time};

use ssp_fd::FdHistory;

use crate::adversary::{Adversary, DeliveryChoice, ExecView};
use crate::automaton::{BoxedAutomaton, StepContext};
use crate::trace::{Event, Trace};

/// Perfect-detector detection delays for the `SP` executor.
///
/// Observer `p` starts suspecting `q` exactly `delay(p, q)` ticks after
/// `q` crashes — never before (strong accuracy by construction) and
/// always eventually (strong completeness, provided the run lasts long
/// enough). The unboundedness of these delays is the `SP` adversary's
/// key power (§3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionDelays {
    n: usize,
    default: u64,
    per_pair: Vec<Option<u64>>,
}

impl DetectionDelays {
    /// Uniform delays: everyone detects every crash `default` ticks
    /// after it happens.
    #[must_use]
    pub fn uniform(n: usize, default: u64) -> Self {
        DetectionDelays {
            n,
            default,
            per_pair: vec![None; n * n],
        }
    }

    /// Immediate detection (delay 0) — the least adversarial choice.
    #[must_use]
    pub fn immediate(n: usize) -> Self {
        DetectionDelays::uniform(n, 0)
    }

    /// The delay after which `observer` suspects a crashed `target`.
    #[must_use]
    pub fn delay(&self, observer: ProcessId, target: ProcessId) -> u64 {
        self.per_pair[observer.index() * self.n + target.index()].unwrap_or(self.default)
    }

    /// The suspicion set of `observer` at time `now`, given realized
    /// crash times.
    #[must_use]
    pub fn suspects(
        &self,
        observer: ProcessId,
        now: Time,
        crash_times: &[Option<Time>],
    ) -> ProcessSet {
        let mut s = ProcessSet::empty();
        for (i, ct) in crash_times.iter().enumerate() {
            if let Some(ct) = ct {
                let q = ProcessId::new(i);
                if now >= *ct + self.delay(observer, q) {
                    s.insert(q);
                }
            }
        }
        s
    }
}

/// Which of the §2 models the executor enforces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelKind {
    /// The plain asynchronous model (§2.3).
    Async,
    /// The synchronous model `SS` (§2.4) with its two bounds.
    Ss {
        /// Process-synchrony bound `Φ ≥ 1`.
        phi: u64,
        /// Message-synchrony bound `Δ ≥ 1`.
        delta: u64,
    },
    /// The asynchronous model with the perfect failure detector (§2.6).
    Sp {
        /// The adversary-chosen detection delays.
        delays: DetectionDelays,
    },
    /// The asynchronous model with an *arbitrary* failure detector,
    /// whose values are read from a precomputed history (§2.5). This
    /// generalizes [`ModelKind::Sp`]: with a `P`-compatible history the
    /// two coincide; with a `◇S` history it hosts the Chandra–Toueg
    /// style algorithms of the failure-detector approach.
    Fd {
        /// The history `H : Π × T → 2^Π` answered at each query phase.
        history: FdHistory,
    },
    /// The partially synchronous model of Dwork–Lynch–Stockmeyer
    /// (referenced in the paper's §1): the `SS` bounds `Φ`, `Δ` hold
    /// only from an (unknown to the processes) *global stabilization
    /// time* onward, here expressed as a schedule index. Before `gst`
    /// the adversary schedules and withholds freely; after it, process
    /// and message synchrony are enforced exactly as in `SS`
    /// (pre-`gst` messages are force-delivered within `Δ` steps of
    /// `gst`). With `gst = 0` this *is* `SS`.
    Dls {
        /// Process-synchrony bound `Φ ≥ 1` (post-stabilization).
        phi: u64,
        /// Message-synchrony bound `Δ ≥ 1` (post-stabilization).
        delta: u64,
        /// The global stabilization time, as a schedule index.
        gst: u64,
    },
}

impl ModelKind {
    /// Convenience constructor for `SS`.
    ///
    /// # Panics
    ///
    /// Panics unless `phi ≥ 1` and `delta ≥ 1` (the paper's premises).
    #[must_use]
    pub fn ss(phi: u64, delta: u64) -> Self {
        assert!(phi >= 1 && delta >= 1, "SS requires Φ ≥ 1 and Δ ≥ 1");
        ModelKind::Ss { phi, delta }
    }

    /// Convenience constructor for `SP`.
    #[must_use]
    pub fn sp(delays: DetectionDelays) -> Self {
        ModelKind::Sp { delays }
    }

    /// Convenience constructor for an arbitrary-detector model.
    #[must_use]
    pub fn fd(history: FdHistory) -> Self {
        ModelKind::Fd { history }
    }

    /// Convenience constructor for the partially synchronous model.
    ///
    /// # Panics
    ///
    /// Panics unless `phi ≥ 1` and `delta ≥ 1`.
    #[must_use]
    pub fn dls(phi: u64, delta: u64, gst: u64) -> Self {
        assert!(phi >= 1 && delta >= 1, "DLS requires Φ ≥ 1 and Δ ≥ 1");
        ModelKind::Dls { phi, delta, gst }
    }
}

/// Errors raised when an adversary's choice leaves the model, or the
/// run exceeds its safety cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A step or crash was requested for an already-crashed process.
    NotAlive(ProcessId),
    /// In `SS`: stepping this process would give it `Φ+1` steps in a
    /// window where the other (alive) process has none.
    ProcessSynchrony {
        /// The process whose extra step violates the bound.
        fast: ProcessId,
        /// The starved alive process.
        starved: ProcessId,
    },
    /// A delivery key did not match any buffered message.
    UnknownDeliveryKey {
        /// The stepping process.
        process: ProcessId,
        /// The unmatched `(src, sent_at)` key.
        key: (ProcessId, StepIndex),
    },
    /// The run exceeded the hard event cap without the adversary ending it.
    EventCapExceeded(u64),
    /// An automaton retracted or changed its output — outputs must be
    /// irrevocable.
    OutputChanged(ProcessId),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NotAlive(p) => write!(f, "{p} is crashed and cannot act"),
            SimError::ProcessSynchrony { fast, starved } => write!(
                f,
                "process synchrony violated: {fast} would take Φ+1 steps while alive {starved} takes none"
            ),
            SimError::UnknownDeliveryKey { process, key } => write!(
                f,
                "delivery key ({}, {}) not in {process}'s buffer",
                key.0, key.1
            ),
            SimError::EventCapExceeded(cap) => {
                write!(f, "run exceeded the event cap of {cap}")
            }
            SimError::OutputChanged(p) => write!(f, "{p} changed its irrevocable output"),
        }
    }
}

impl std::error::Error for SimError {}

/// Everything a finished run produces.
#[derive(Debug)]
pub struct RunResult<M, O> {
    /// The full event trace.
    pub trace: Trace<M>,
    /// Final outputs, one per process.
    pub outputs: Vec<Option<O>>,
    /// The realized failure pattern.
    pub pattern: FailurePattern,
    /// Processes still alive at the end of the run.
    pub final_alive: ProcessSet,
    /// In `SS` mode: the alive processes that could not take the next
    /// step without violating `Φ` at the moment the run ended.
    pub final_blocked: ProcessSet,
    /// The receive buffers at the end of the run (messages sent but
    /// never delivered).
    pub final_buffers: Vec<Buffer<M>>,
}

impl<M, O> RunResult<M, O> {
    /// Output of process `p`.
    #[must_use]
    pub fn output(&self, p: ProcessId) -> Option<&O> {
        self.outputs[p.index()].as_ref()
    }
}

/// Everything a finished run produces *except* the trace — what
/// [`run_observed`] returns when the caller supplies its own event
/// sink (possibly a [`NullObserver`](ssp_model::NullObserver), in
/// which case no trace exists anywhere).
#[derive(Debug)]
pub struct RunOutputs<M, O> {
    /// Final outputs, one per process.
    pub outputs: Vec<Option<O>>,
    /// The realized failure pattern.
    pub pattern: FailurePattern,
    /// Processes still alive at the end of the run.
    pub final_alive: ProcessSet,
    /// In `SS` mode: the alive processes that could not take the next
    /// step without violating `Φ` at the moment the run ended.
    pub final_blocked: ProcessSet,
    /// The receive buffers at the end of the run (messages sent but
    /// never delivered).
    pub final_buffers: Vec<Buffer<M>>,
}

/// Runs `automata` under `model` with scheduling chosen by `adversary`.
///
/// The run ends when the adversary returns `None`. `event_cap` is a
/// hard safety bound against runaway adversaries.
///
/// # Errors
///
/// Returns a [`SimError`] if the adversary's choices leave the model
/// (stepping crashed processes, violating `Φ`, unknown delivery keys),
/// if an automaton changes its output, or if the cap is hit.
///
/// # Examples
///
/// ```
/// use ssp_sim::{run, FairAdversary, IdleAutomaton, ModelKind};
///
/// let automata: Vec<ssp_sim::BoxedAutomaton<u32, bool>> = (0..2)
///     .map(|_| Box::new(IdleAutomaton::new()) as _)
///     .collect();
/// let mut adversary = FairAdversary::new(2, 4);
/// let result = run(ModelKind::Async, automata, &mut adversary, 1_000)?;
/// assert_eq!(result.trace.len(), 4);
/// # Ok::<(), ssp_sim::SimError>(())
/// ```
pub fn run<M, O>(
    model: ModelKind,
    automata: Vec<BoxedAutomaton<M, O>>,
    adversary: &mut dyn Adversary<M>,
    event_cap: u64,
) -> Result<RunResult<M, O>, SimError>
where
    M: Clone + fmt::Debug + PartialEq,
    O: Clone + fmt::Debug + PartialEq,
{
    let mut obs: RunLogObserver<M> = RunLogObserver::new(automata.len());
    let outs = run_core(model, automata, adversary, event_cap, &mut obs)?;
    Ok(RunResult {
        trace: Trace::from_run_log(&obs.into_log()),
        outputs: outs.outputs,
        pattern: outs.pattern,
        final_alive: outs.final_alive,
        final_blocked: outs.final_blocked,
        final_buffers: outs.final_buffers,
    })
}

/// Like [`run`], emitting the canonical event stream into any
/// [`Observer`] sink instead of accumulating a [`Trace`]. With a
/// [`NullObserver`](ssp_model::NullObserver) the tracing compiles
/// away entirely.
///
/// # Errors
///
/// As for [`run`].
pub fn run_observed<M, O, Obs>(
    model: ModelKind,
    automata: Vec<BoxedAutomaton<M, O>>,
    adversary: &mut dyn Adversary<M>,
    event_cap: u64,
    obs: &mut Obs,
) -> Result<RunOutputs<M, O>, SimError>
where
    M: Clone + fmt::Debug + PartialEq,
    O: Clone + fmt::Debug + PartialEq,
    Obs: Observer<M>,
{
    run_core(model, automata, adversary, event_cap, obs)
}

/// The single step-model engine behind [`run`] and [`run_observed`].
///
/// Per step, in canonical order: one `Deliver` per received envelope
/// (in delivery order), a `Suspect` reading when non-empty, the `Send`
/// if any, a `Decide` when the output register first becomes set, then
/// one stamped per-process `Close`. Crashes emit `Crash` events with
/// wall-clock times. All event construction is guarded by
/// [`Observer::active`].
fn run_core<M, O, Obs>(
    model: ModelKind,
    mut automata: Vec<BoxedAutomaton<M, O>>,
    adversary: &mut dyn Adversary<M>,
    event_cap: u64,
    obs: &mut Obs,
) -> Result<RunOutputs<M, O>, SimError>
where
    M: Clone + fmt::Debug + PartialEq,
    O: Clone + fmt::Debug + PartialEq,
    Obs: Observer<M>,
{
    let n = automata.len();
    let mut buffers: Vec<Buffer<M>> = (0..n).map(|_| Buffer::new()).collect();
    let mut alive = ProcessSet::full(n);
    let mut crash_times: Vec<Option<Time>> = vec![None; n];
    let mut step_counts: Vec<u64> = vec![0; n];
    let mut outputs: Vec<Option<O>> = vec![None; n];
    let mut decided: Vec<bool> = vec![false; n];
    // since[p][q]: steps p has taken since q's last step (SS bookkeeping).
    let mut since: Vec<u64> = vec![0; n * n];
    let mut time = Time::ZERO;
    let mut global_step: u64 = 0;
    let mut events: u64 = 0;

    // (Φ, Δ, gst): SS is the gst = 0 case of DLS.
    let sync: Option<(u64, u64, u64)> = match &model {
        ModelKind::Ss { phi, delta } => Some((*phi, *delta, 0)),
        ModelKind::Dls { phi, delta, gst } => Some((*phi, *delta, *gst)),
        _ => None,
    };
    let phi = sync.map(|(phi, _, _)| phi);
    let delta_gst = sync.map(|(_, delta, gst)| (delta, gst));

    loop {
        let ss_blocked = match phi {
            Some(phi) => {
                let mut blocked = ProcessSet::empty();
                for p in alive.iter() {
                    let starves = alive
                        .iter()
                        .any(|q| q != p && since[p.index() * n + q.index()] >= phi);
                    if starves {
                        blocked.insert(p);
                    }
                }
                blocked
            }
            None => ProcessSet::empty(),
        };
        let view = ExecView {
            time,
            next_global_step: StepIndex::new(global_step),
            alive,
            ss_blocked,
            step_counts: &step_counts,
            buffers: &buffers,
            decided: &decided,
        };
        let Some(choice) = adversary.next(&view) else {
            break;
        };
        if events >= event_cap {
            return Err(SimError::EventCapExceeded(event_cap));
        }
        events += 1;
        match choice.event {
            Event::Crash(p) => {
                if !alive.contains(p) {
                    return Err(SimError::NotAlive(p));
                }
                alive.remove(p);
                crash_times[p.index()] = Some(time);
                if obs.active() {
                    obs.record(RunEvent::Crash {
                        process: p,
                        round: None,
                        time: Some(time),
                    });
                }
            }
            Event::Step(p) => {
                if !alive.contains(p) {
                    return Err(SimError::NotAlive(p));
                }
                if let Some(phi) = phi {
                    for q in alive.iter() {
                        if q != p && since[p.index() * n + q.index()] >= phi {
                            return Err(SimError::ProcessSynchrony {
                                fast: p,
                                starved: q,
                            });
                        }
                    }
                }
                // Receive phase: adversary-selected …
                let mut received: Vec<Envelope<M>> = match choice.delivery {
                    DeliveryChoice::All => buffers[p.index()].take_all(),
                    DeliveryChoice::Nothing => Vec::new(),
                    DeliveryChoice::Keys(keys) => {
                        let taken =
                            buffers[p.index()].take_where(|e| keys.contains(&(e.src, e.sent_at)));
                        if taken.len() != keys.len() {
                            let missing = keys
                                .into_iter()
                                .find(|k| !taken.iter().any(|e| (e.src, e.sent_at) == *k))
                                .expect("some key unmatched");
                            return Err(SimError::UnknownDeliveryKey {
                                process: p,
                                key: missing,
                            });
                        }
                        taken
                    }
                };
                // … plus Δ-overdue messages force-delivered in SS/DLS
                // (pre-gst sends count as sent at gst).
                if let Some((delta, gst)) = delta_gst {
                    let overdue = buffers[p.index()]
                        .take_where(|e| e.sent_at.position().max(gst) + delta <= global_step);
                    received.extend(overdue);
                }
                // Failure-detector query phase (SP only).
                let suspects = match &model {
                    ModelKind::Sp { delays } => delays.suspects(p, time, &crash_times),
                    ModelKind::Fd { history } => history.query(p, time),
                    _ => ProcessSet::empty(),
                };
                let own_step = step_counts[p.index()];
                let sent = automata[p.index()].step(StepContext {
                    received: &received,
                    suspects,
                    own_step,
                });
                step_counts[p.index()] += 1;
                // Output irrevocability.
                let new_output = automata[p.index()].output();
                match (&outputs[p.index()], &new_output) {
                    (Some(old), new) if new.as_ref() != Some(old) => {
                        return Err(SimError::OutputChanged(p));
                    }
                    _ => {}
                }
                let newly_decided = !decided[p.index()] && new_output.is_some();
                decided[p.index()] = new_output.is_some();
                outputs[p.index()] = new_output;
                // Send phase.
                let sent_env = sent.map(|(dst, payload)| {
                    let env = Envelope {
                        src: p,
                        dst,
                        sent_at: StepIndex::new(global_step),
                        payload,
                    };
                    buffers[dst.index()].push(env.clone());
                    env
                });
                // Bookkeeping for Φ (steps before gst are unconstrained
                // and do not count toward anyone's window).
                let counts_for_phi = sync.is_none_or(|(_, _, gst)| global_step >= gst);
                for q in 0..n {
                    if q != p.index() {
                        if counts_for_phi {
                            since[p.index() * n + q] += 1;
                        }
                        since[q * n + p.index()] = 0;
                    }
                }
                if obs.active() {
                    let mut heard = ProcessSet::empty();
                    for env in &received {
                        heard.insert(env.src);
                        obs.record(RunEvent::Deliver {
                            src: env.src,
                            dst: p,
                            round: None,
                            sent_at: Some(env.sent_at),
                            payload: Some(env.payload.clone()),
                        });
                    }
                    if !suspects.is_empty() {
                        obs.record(RunEvent::Suspect {
                            observer: p,
                            suspected: suspects,
                        });
                    }
                    if let Some(env) = &sent_env {
                        obs.record(RunEvent::Send {
                            src: p,
                            dst: env.dst,
                            round: None,
                            at: Some(env.sent_at),
                            payload: Some(env.payload.clone()),
                        });
                    }
                    if newly_decided {
                        obs.record(RunEvent::Decide {
                            process: p,
                            round: None,
                        });
                    }
                    obs.record(RunEvent::Close {
                        round: None,
                        process: Some(p),
                        stamp: Some(StepStamp {
                            time,
                            global_step: StepIndex::new(global_step),
                            own_step,
                        }),
                        heard: DeliveryMatrix::step(heard),
                    });
                }
                global_step += 1;
            }
        }
        time = time.next();
    }

    let mut pattern = FailurePattern::no_failures(n);
    for (i, ct) in crash_times.iter().enumerate() {
        if let Some(t) = ct {
            pattern.crash(ProcessId::new(i), *t);
        }
    }
    let final_blocked = match phi {
        Some(phi) => {
            let mut blocked = ProcessSet::empty();
            for p in alive.iter() {
                if alive
                    .iter()
                    .any(|q| q != p && since[p.index() * n + q.index()] >= phi)
                {
                    blocked.insert(p);
                }
            }
            blocked
        }
        None => ProcessSet::empty(),
    };
    Ok(RunOutputs {
        outputs,
        pattern,
        final_alive: alive,
        final_blocked,
        final_buffers: buffers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{Choice, FairAdversary, ScriptedAdversary};
    use crate::automaton::{IdleAutomaton, StepAutomaton};
    use crate::trace::TraceEvent;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Sends its id to the other process on its first step and outputs
    /// the first payload it receives.
    #[derive(Debug)]
    struct PingAutomaton {
        me: ProcessId,
        peer: ProcessId,
        got: Option<u32>,
    }

    impl StepAutomaton for PingAutomaton {
        type Msg = u32;
        type Output = u32;

        fn step(&mut self, ctx: StepContext<'_, u32>) -> Option<(ProcessId, u32)> {
            if let Some(env) = ctx.received.first() {
                if self.got.is_none() {
                    self.got = Some(env.payload);
                }
            }
            if ctx.own_step == 0 {
                Some((self.peer, self.me.index() as u32 + 100))
            } else {
                None
            }
        }

        fn output(&self) -> Option<u32> {
            self.got
        }
    }

    fn ping_pair() -> Vec<BoxedAutomaton<u32, u32>> {
        vec![
            Box::new(PingAutomaton {
                me: p(0),
                peer: p(1),
                got: None,
            }),
            Box::new(PingAutomaton {
                me: p(1),
                peer: p(0),
                got: None,
            }),
        ]
    }

    #[test]
    fn async_fair_run_delivers_and_outputs() {
        let mut adv = FairAdversary::new(2, 100);
        let result = run(ModelKind::Async, ping_pair(), &mut adv, 1_000).unwrap();
        assert_eq!(result.outputs, vec![Some(101), Some(100)]);
        assert!(result.pattern.faulty().is_empty());
        assert!(result.trace.undelivered_to(p(0)).is_empty());
        assert!(result.trace.undelivered_to(p(1)).is_empty());
    }

    #[test]
    fn crash_prevents_further_steps() {
        let mut adv = ScriptedAdversary::new(
            vec![Event::Crash(p(0)), Event::Step(p(0))],
            vec![DeliveryChoice::All],
        );
        let automata: Vec<BoxedAutomaton<u32, u32>> = vec![
            Box::new(IdleAutomaton::new()),
            Box::new(IdleAutomaton::new()),
        ];
        let err = run(ModelKind::Async, automata, &mut adv, 100).unwrap_err();
        assert_eq!(err, SimError::NotAlive(p(0)));
    }

    #[test]
    fn ss_blocks_phi_plus_one_steps() {
        // Φ=1: p1 stepping twice in a row while p2 is alive is illegal.
        let mut adv = ScriptedAdversary::new(
            vec![Event::Step(p(0)), Event::Step(p(0))],
            vec![DeliveryChoice::All, DeliveryChoice::All],
        );
        let err = run(ModelKind::ss(1, 1), ping_pair(), &mut adv, 100).unwrap_err();
        assert_eq!(
            err,
            SimError::ProcessSynchrony {
                fast: p(0),
                starved: p(1)
            }
        );
    }

    #[test]
    fn ss_allows_phi_steps_then_requires_other() {
        // Φ=2: p1 may step twice, then p2 must step before p1's third.
        let mut adv = ScriptedAdversary::new(
            vec![
                Event::Step(p(0)),
                Event::Step(p(0)),
                Event::Step(p(1)),
                Event::Step(p(0)),
            ],
            vec![DeliveryChoice::Nothing; 4],
        );
        let automata: Vec<BoxedAutomaton<u32, u32>> = vec![
            Box::new(IdleAutomaton::new()),
            Box::new(IdleAutomaton::new()),
        ];
        assert!(run(ModelKind::ss(2, 1), automata, &mut adv, 100).is_ok());
    }

    #[test]
    fn ss_crashed_process_does_not_constrain() {
        // p2 crashes; p1 may then step arbitrarily often.
        let mut adv = ScriptedAdversary::new(
            vec![
                Event::Crash(p(1)),
                Event::Step(p(0)),
                Event::Step(p(0)),
                Event::Step(p(0)),
            ],
            vec![DeliveryChoice::Nothing; 3],
        );
        let automata: Vec<BoxedAutomaton<u32, u32>> = vec![
            Box::new(IdleAutomaton::new()),
            Box::new(IdleAutomaton::new()),
        ];
        assert!(run(ModelKind::ss(1, 1), automata, &mut adv, 100).is_ok());
    }

    #[test]
    fn ss_forces_overdue_delivery() {
        // Δ=2: p1 sends at global step 0; p2's step at global index ≥ 2
        // must receive it even though the adversary delivers Nothing.
        let mut adv = ScriptedAdversary::new(
            vec![
                Event::Step(p(0)), // sends, global step 0
                Event::Step(p(1)), // global step 1: not yet overdue
                Event::Step(p(0)), // global step 2
                Event::Step(p(1)), // global step 3: 0+2 ≤ 3 ⇒ forced
            ],
            vec![DeliveryChoice::Nothing; 4],
        );
        let result = run(ModelKind::ss(1, 2), ping_pair(), &mut adv, 100).unwrap();
        // p2 received p1's message (forced) → output set.
        assert_eq!(result.outputs[1], Some(100));
        let view = result.trace.local_view(p(1));
        assert!(view[0].received.is_empty(), "not yet due at first step");
        assert_eq!(view[1].received, vec![(p(0), 100)], "forced at second step");
    }

    #[test]
    fn sp_query_phase_reports_crashes_after_delay() {
        let delays = DetectionDelays::uniform(2, 2);
        let mut adv = ScriptedAdversary::new(
            vec![
                Event::Crash(p(0)), // t=0: crash
                Event::Step(p(1)),  // t=1: not yet suspected
                Event::Step(p(1)),  // t=2: suspected (0 + 2 ≤ 2)
            ],
            vec![DeliveryChoice::All; 2],
        );
        let automata: Vec<BoxedAutomaton<u32, u32>> = vec![
            Box::new(IdleAutomaton::new()),
            Box::new(IdleAutomaton::new()),
        ];
        let result = run(ModelKind::sp(delays), automata, &mut adv, 100).unwrap();
        let view = result.trace.local_view(p(1));
        assert!(view[0].suspects.is_empty());
        assert!(view[1].suspects.contains(p(0)));
    }

    #[test]
    fn sp_never_suspects_alive() {
        let delays = DetectionDelays::immediate(3);
        let mut adv = FairAdversary::new(3, 30).with_min_events(30);
        let automata: Vec<BoxedAutomaton<u32, u32>> = (0..3)
            .map(|_| Box::new(IdleAutomaton::new()) as BoxedAutomaton<u32, u32>)
            .collect();
        let result = run(ModelKind::sp(delays), automata, &mut adv, 100).unwrap();
        for ev in result.trace.events() {
            if let TraceEvent::Step(s) = ev {
                assert!(s.suspects.is_empty(), "no crash ⇒ no suspicion");
            }
        }
    }

    #[test]
    fn unknown_delivery_key_is_error() {
        let mut adv = ScriptedAdversary::new(
            vec![Event::Step(p(0))],
            vec![DeliveryChoice::Keys(vec![(p(1), StepIndex::new(9))])],
        );
        let automata: Vec<BoxedAutomaton<u32, u32>> = vec![
            Box::new(IdleAutomaton::new()),
            Box::new(IdleAutomaton::new()),
        ];
        let err = run(ModelKind::Async, automata, &mut adv, 100).unwrap_err();
        assert!(matches!(err, SimError::UnknownDeliveryKey { .. }));
    }

    #[test]
    fn event_cap_guards_runaway() {
        #[derive(Debug)]
        struct Forever;
        impl Adversary<u32> for Forever {
            fn next(&mut self, _v: &ExecView<'_, u32>) -> Option<Choice> {
                Some(Choice::step_nothing(p(0)))
            }
        }
        let automata: Vec<BoxedAutomaton<u32, u32>> = vec![Box::new(IdleAutomaton::new())];
        let err = run(ModelKind::Async, automata, &mut Forever, 10).unwrap_err();
        assert_eq!(err, SimError::EventCapExceeded(10));
    }

    #[test]
    fn replay_reproduces_trace() {
        let mut adv = FairAdversary::new(2, 100);
        let original = run(ModelKind::Async, ping_pair(), &mut adv, 1_000).unwrap();
        let mut replay =
            ScriptedAdversary::replay(original.trace.schedule(), original.trace.delivery_script());
        let replayed = run(ModelKind::Async, ping_pair(), &mut replay, 1_000).unwrap();
        assert_eq!(replayed.outputs, original.outputs);
        assert_eq!(replayed.trace.events(), original.trace.events());
    }
}

#[cfg(test)]
mod dls_tests {
    use super::*;
    use crate::adversary::{DeliveryChoice, FairAdversary, ScriptedAdversary};
    use crate::automaton::{BoxedAutomaton, IdleAutomaton};
    use crate::trace::Event;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn idle_pair() -> Vec<BoxedAutomaton<u32, u32>> {
        vec![
            Box::new(IdleAutomaton::new()),
            Box::new(IdleAutomaton::new()),
        ]
    }

    #[test]
    fn pre_gst_scheduling_is_unconstrained() {
        // Φ=1 would forbid consecutive steps in SS; before gst=4 the
        // DLS adversary may starve p2 freely.
        let mut adv =
            ScriptedAdversary::new(vec![Event::Step(p(0)); 4], vec![DeliveryChoice::Nothing; 4]);
        run(ModelKind::dls(1, 1, 4), idle_pair(), &mut adv, 100)
            .expect("pre-gst starvation is legal in DLS");
    }

    #[test]
    fn post_gst_phi_is_enforced() {
        // gst=2: the first two consecutive p1 steps are free; the next
        // pair (indices 2 and 3, both ≥ gst) violate Φ=1.
        let mut adv =
            ScriptedAdversary::new(vec![Event::Step(p(0)); 4], vec![DeliveryChoice::Nothing; 4]);
        let err = run(ModelKind::dls(1, 1, 2), idle_pair(), &mut adv, 100).unwrap_err();
        assert_eq!(
            err,
            SimError::ProcessSynchrony {
                fast: p(0),
                starved: p(1)
            }
        );
    }

    #[test]
    fn pre_gst_messages_force_delivered_after_gst_plus_delta() {
        #[derive(Debug)]
        struct Talker;
        impl crate::automaton::StepAutomaton for Talker {
            type Msg = u32;
            type Output = u32;
            fn step(
                &mut self,
                ctx: crate::automaton::StepContext<'_, u32>,
            ) -> Option<(ProcessId, u32)> {
                (ctx.own_step == 0).then_some((p(1), 7))
            }
            fn output(&self) -> Option<u32> {
                None
            }
        }
        // p1 sends at global step 0 (pre-gst). gst=3, Δ=2: the message
        // must be force-delivered at p2's first step with index ≥ 5.
        let mut adv = ScriptedAdversary::new(
            vec![
                Event::Step(p(0)), // 0: send (pre-gst)
                Event::Step(p(1)), // 1: withholding legal (pre-gst)
                Event::Step(p(1)), // 2: still legal
                Event::Step(p(0)), // 3
                Event::Step(p(1)), // 4: 0.max(3)+2 = 5 > 4 → still legal
                Event::Step(p(0)), // 5
                Event::Step(p(1)), // 6: ≥ 5 ⇒ forced
            ],
            vec![DeliveryChoice::Nothing; 7],
        );
        let automata: Vec<BoxedAutomaton<u32, u32>> =
            vec![Box::new(Talker), Box::new(IdleAutomaton::new())];
        let result = run(ModelKind::dls(5, 2, 3), automata, &mut adv, 100).unwrap();
        let views = result.trace.local_view(p(1));
        assert!(views[0].received.is_empty());
        assert!(views[1].received.is_empty());
        assert!(views[2].received.is_empty());
        assert_eq!(views[3].received, vec![(p(0), 7)], "forced at index 6");
    }

    #[test]
    fn dls_with_gst_zero_is_ss() {
        let mut adv = FairAdversary::new(2, 30);
        let a = run(ModelKind::dls(2, 2, 0), idle_pair(), &mut adv, 100).unwrap();
        let mut adv = FairAdversary::new(2, 30);
        let b = run(ModelKind::ss(2, 2), idle_pair(), &mut adv, 100).unwrap();
        assert_eq!(a.trace.events(), b.trace.events());
    }
}
