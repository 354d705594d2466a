//! Scheduling adversaries.
//!
//! The models of §2 are defined by *which runs are possible*; an
//! adversary is a strategy that picks the next event (who steps, who
//! crashes) and which buffered messages the stepping process receives.
//! The executors validate adversary choices against the model's
//! synchrony conditions, so an adversary can be arbitrary code — fair
//! round-robin ([`FairAdversary`]), seeded random
//! ([`RandomAdversary`]), or an exact replay of a (possibly edited)
//! schedule ([`ScriptedAdversary`], the tool behind Theorem 3.1's run
//! surgery).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use core::fmt;

use ssp_model::{Buffer, ProcessId, ProcessSet, RunLog, StepIndex, Time};

use crate::steps::{delivery_script, schedule};

/// A scheduling event: either a process takes a step or it crashes.
///
/// The global clock ticks once per event; the *global step index*
/// (`S`'s positions, which `Δ` is stated in terms of) counts only
/// steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// The process takes its next atomic step.
    Step(ProcessId),
    /// The process crashes (takes no further steps).
    Crash(ProcessId),
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Step(p) => write!(f, "step({p})"),
            Event::Crash(p) => write!(f, "crash({p})"),
        }
    }
}

/// Read-only executor state exposed to adversaries.
#[derive(Debug)]
pub struct ExecView<'a, M> {
    /// Current global clock tick (one per event).
    pub time: Time,
    /// Index the next step will occupy in the schedule `S`.
    pub next_global_step: StepIndex,
    /// Processes that have not crashed.
    pub alive: ProcessSet,
    /// In `SS` mode, the alive processes that cannot take the next step
    /// without violating process synchrony (`Φ`). Empty in other models.
    pub ss_blocked: ProcessSet,
    /// Per-process step counts so far.
    pub step_counts: &'a [u64],
    /// Per-process receive buffers (messages sent but not received).
    pub buffers: &'a [Buffer<M>],
    /// Per-process: whether the automaton has produced an output.
    pub decided: &'a [bool],
}

impl<M> ExecView<'_, M> {
    /// Alive processes that may step right now.
    #[must_use]
    pub fn schedulable(&self) -> ProcessSet {
        self.alive.difference(self.ss_blocked)
    }

    /// Whether every alive process has produced its output.
    #[must_use]
    pub fn all_alive_decided(&self) -> bool {
        self.alive.iter().all(|p| self.decided[p.index()])
    }
}

/// Which buffered messages the stepping process receives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliveryChoice {
    /// Deliver the whole buffer.
    All,
    /// Deliver nothing (the model's executors may still force
    /// deliveries, e.g. `Δ`-overdue messages in `SS`).
    Nothing,
    /// Deliver exactly the messages with these `(src, sent_at)` keys.
    Keys(Vec<(ProcessId, StepIndex)>),
}

/// An adversary's decision for the next event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Choice {
    /// The event to perform.
    pub event: Event,
    /// Delivery selection if the event is a step (ignored for crashes).
    pub delivery: DeliveryChoice,
}

impl Choice {
    /// A step of `p` receiving everything in its buffer.
    #[must_use]
    pub fn step_all(p: ProcessId) -> Self {
        Choice {
            event: Event::Step(p),
            delivery: DeliveryChoice::All,
        }
    }

    /// A step of `p` receiving nothing (beyond what the model forces).
    #[must_use]
    pub fn step_nothing(p: ProcessId) -> Self {
        Choice {
            event: Event::Step(p),
            delivery: DeliveryChoice::Nothing,
        }
    }

    /// A crash of `p`.
    #[must_use]
    pub fn crash(p: ProcessId) -> Self {
        Choice {
            event: Event::Crash(p),
            delivery: DeliveryChoice::Nothing,
        }
    }
}

/// A scheduling strategy. Returning `None` ends the run.
pub trait Adversary<M> {
    /// Chooses the next event given the executor's state.
    fn next(&mut self, view: &ExecView<'_, M>) -> Option<Choice>;
}

/// Fair round-robin adversary with an optional crash plan.
///
/// Cycles through alive, non-blocked processes in index order,
/// delivering full buffers. Process `p` crashes right after taking
/// `crash_after[p]` steps (0 ⇒ initially dead, before any step).
/// Stops after `max_events`, or earlier once every alive process has
/// decided, all buffers of alive processes are drained, and at least
/// `min_events` events have happened.
#[derive(Debug, Clone)]
pub struct FairAdversary {
    crash_after: Vec<Option<u64>>,
    max_events: u64,
    min_events: u64,
    emitted: u64,
    cursor: usize,
}

impl FairAdversary {
    /// Creates a failure-free fair adversary over `n` processes that
    /// runs for at most `max_events` events.
    #[must_use]
    pub fn new(n: usize, max_events: u64) -> Self {
        FairAdversary {
            crash_after: vec![None; n],
            max_events,
            min_events: 0,
            emitted: 0,
            cursor: 0,
        }
    }

    /// Schedules `p` to crash immediately after its `after_steps`-th
    /// step (`0` makes it initially dead).
    #[must_use]
    pub fn with_crash(mut self, p: ProcessId, after_steps: u64) -> Self {
        self.crash_after[p.index()] = Some(after_steps);
        self
    }

    /// Requires at least this many events before the early-stop
    /// condition may end the run.
    #[must_use]
    pub fn with_min_events(mut self, min_events: u64) -> Self {
        self.min_events = min_events;
        self
    }
}

impl<M> Adversary<M> for FairAdversary {
    fn next(&mut self, view: &ExecView<'_, M>) -> Option<Choice> {
        if self.emitted >= self.max_events {
            return None;
        }
        // Pending crashes first (so "crash after k steps" is immediate).
        for p in view.alive.iter() {
            if let Some(quota) = self.crash_after[p.index()] {
                if view.step_counts[p.index()] >= quota {
                    self.emitted += 1;
                    return Some(Choice::crash(p));
                }
            }
        }
        // Early stop when the system is quiescent.
        let quiescent = view.all_alive_decided()
            && view
                .alive
                .iter()
                .all(|p| view.buffers[p.index()].is_empty());
        if quiescent && self.emitted >= self.min_events {
            return None;
        }
        // Next alive, non-blocked process at or after the cursor.
        let n = self.crash_after.len();
        let candidates = view.schedulable();
        if candidates.is_empty() {
            return None;
        }
        for offset in 0..n {
            let i = (self.cursor + offset) % n;
            let p = ProcessId::new(i);
            if candidates.contains(p) {
                self.cursor = (i + 1) % n;
                self.emitted += 1;
                return Some(Choice::step_all(p));
            }
        }
        None
    }
}

/// Seeded random adversary: random schedulable process, random subset
/// delivery, crash plan as in [`FairAdversary`].
///
/// Useful with `proptest`/fuzzing to explore many interleavings
/// reproducibly. Note: random subsets make *eventual delivery* only
/// probabilistic; pair with a horizon long enough or check
/// [`validate_basic`](crate::validate_basic) afterwards.
#[derive(Debug)]
pub struct RandomAdversary {
    rng: StdRng,
    crash_after: Vec<Option<u64>>,
    max_events: u64,
    emitted: u64,
    deliver_all_probability: f64,
}

impl RandomAdversary {
    /// Creates a random adversary over `n` processes.
    #[must_use]
    pub fn new(n: usize, max_events: u64, seed: u64) -> Self {
        RandomAdversary {
            rng: StdRng::seed_from_u64(seed),
            crash_after: vec![None; n],
            max_events,
            emitted: 0,
            deliver_all_probability: 0.8,
        }
    }

    /// Schedules `p` to crash right after its `after_steps`-th step.
    #[must_use]
    pub fn with_crash(mut self, p: ProcessId, after_steps: u64) -> Self {
        self.crash_after[p.index()] = Some(after_steps);
        self
    }

    /// Sets the probability that a step receives its whole buffer
    /// (otherwise a uniformly random subset is delivered).
    #[must_use]
    pub fn with_deliver_all_probability(mut self, prob: f64) -> Self {
        self.deliver_all_probability = prob;
        self
    }
}

impl<M> Adversary<M> for RandomAdversary {
    fn next(&mut self, view: &ExecView<'_, M>) -> Option<Choice> {
        if self.emitted >= self.max_events {
            return None;
        }
        for p in view.alive.iter() {
            if let Some(quota) = self.crash_after[p.index()] {
                if view.step_counts[p.index()] >= quota {
                    self.emitted += 1;
                    return Some(Choice::crash(p));
                }
            }
        }
        let candidates: Vec<ProcessId> = view.schedulable().iter().collect();
        if candidates.is_empty() {
            return None;
        }
        let p = candidates[self.rng.gen_range(0..candidates.len())];
        self.emitted += 1;
        let delivery = if self.rng.gen_bool(self.deliver_all_probability) {
            DeliveryChoice::All
        } else {
            let keys = view.buffers[p.index()]
                .iter()
                .filter(|_| self.rng.gen_bool(0.5))
                .map(|e| (e.src, e.sent_at))
                .collect();
            DeliveryChoice::Keys(keys)
        };
        Some(Choice {
            event: Event::Step(p),
            delivery,
        })
    }
}

/// Replays an explicit event script with per-step delivery choices.
///
/// This is the run-surgery tool: record a run, edit its
/// [`schedule`] and delivery choices, and replay. The
/// script may be shorter than needed deliveries: missing delivery
/// entries default to [`DeliveryChoice::Nothing`].
#[derive(Debug, Clone)]
pub struct ScriptedAdversary {
    events: Vec<Event>,
    deliveries: Vec<DeliveryChoice>,
    event_cursor: usize,
    delivery_cursor: usize,
}

impl ScriptedAdversary {
    /// Creates a replay of `events`; the `i`-th *step* event consumes
    /// the `i`-th entry of `deliveries`.
    #[must_use]
    pub fn new(events: Vec<Event>, deliveries: Vec<DeliveryChoice>) -> Self {
        ScriptedAdversary {
            events,
            deliveries,
            event_cursor: 0,
            delivery_cursor: 0,
        }
    }

    /// Replays a recorded step-level run exactly: its schedule, and at
    /// each step the delivery keys `(src, sent_at)` it received.
    #[must_use]
    pub fn replay_log<M>(log: &RunLog<M>) -> Self {
        ScriptedAdversary::new(schedule(log), delivery_script(log))
    }

    /// Appends an event with its delivery choice.
    pub fn push(&mut self, event: Event, delivery: DeliveryChoice) {
        if matches!(event, Event::Step(_)) {
            // Keep the deliveries list aligned with step events.
            let step_index = self
                .events
                .iter()
                .filter(|e| matches!(e, Event::Step(_)))
                .count();
            while self.deliveries.len() < step_index {
                self.deliveries.push(DeliveryChoice::Nothing);
            }
            self.deliveries.push(delivery);
        }
        self.events.push(event);
    }

    /// Whether the whole script has been consumed.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.event_cursor >= self.events.len()
    }
}

impl<M> Adversary<M> for ScriptedAdversary {
    fn next(&mut self, _view: &ExecView<'_, M>) -> Option<Choice> {
        let event = *self.events.get(self.event_cursor)?;
        self.event_cursor += 1;
        let delivery = if matches!(event, Event::Step(_)) {
            let d = self
                .deliveries
                .get(self.delivery_cursor)
                .cloned()
                .unwrap_or(DeliveryChoice::Nothing);
            self.delivery_cursor += 1;
            d
        } else {
            DeliveryChoice::Nothing
        };
        Some(Choice { event, delivery })
    }
}

/// Runs a sequence of adversaries back to back: when one returns
/// `None`, the next takes over. Useful for "chaotic prefix, fair tail"
/// scenarios (e.g. pre-stabilization chaos in the partially
/// synchronous model).
pub struct ChainAdversary<M> {
    stages: Vec<Box<dyn Adversary<M>>>,
    current: usize,
}

impl<M> core::fmt::Debug for ChainAdversary<M> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ChainAdversary")
            .field("stages", &self.stages.len())
            .field("current", &self.current)
            .finish()
    }
}

impl<M> ChainAdversary<M> {
    /// Creates the chain from its stages, first to act first.
    #[must_use]
    pub fn new(stages: Vec<Box<dyn Adversary<M>>>) -> Self {
        ChainAdversary { stages, current: 0 }
    }
}

impl<M> Adversary<M> for ChainAdversary<M> {
    fn next(&mut self, view: &ExecView<'_, M>) -> Option<Choice> {
        while let Some(stage) = self.stages.get_mut(self.current) {
            if let Some(choice) = stage.next(view) {
                return Some(choice);
            }
            self.current += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_fixture<'a>(
        step_counts: &'a [u64],
        buffers: &'a [Buffer<u32>],
        decided: &'a [bool],
        alive: ProcessSet,
    ) -> ExecView<'a, u32> {
        ExecView {
            time: Time::ZERO,
            next_global_step: StepIndex::FIRST,
            alive,
            ss_blocked: ProcessSet::empty(),
            step_counts,
            buffers,
            decided,
        }
    }

    #[test]
    fn fair_adversary_round_robins() {
        let mut adv = FairAdversary::new(3, 10);
        let counts = [0u64, 0, 0];
        let buffers: Vec<Buffer<u32>> = vec![Buffer::new(), Buffer::new(), Buffer::new()];
        let decided = [false, false, false];
        let view = view_fixture(&counts, &buffers, &decided, ProcessSet::full(3));
        let order: Vec<Choice> = (0..4)
            .map(|_| Adversary::<u32>::next(&mut adv, &view).unwrap())
            .collect();
        assert_eq!(order[0], Choice::step_all(ProcessId::new(0)));
        assert_eq!(order[1], Choice::step_all(ProcessId::new(1)));
        assert_eq!(order[2], Choice::step_all(ProcessId::new(2)));
        assert_eq!(order[3], Choice::step_all(ProcessId::new(0)));
    }

    #[test]
    fn fair_adversary_emits_crash_at_quota() {
        let mut adv = FairAdversary::new(2, 10).with_crash(ProcessId::new(1), 0);
        let counts = [0u64, 0];
        let buffers: Vec<Buffer<u32>> = vec![Buffer::new(), Buffer::new()];
        let decided = [false, false];
        let view = view_fixture(&counts, &buffers, &decided, ProcessSet::full(2));
        let first = Adversary::<u32>::next(&mut adv, &view).unwrap();
        assert_eq!(first, Choice::crash(ProcessId::new(1)));
    }

    #[test]
    fn fair_adversary_stops_when_quiescent() {
        let mut adv = FairAdversary::new(1, 100);
        let counts = [5u64];
        let buffers: Vec<Buffer<u32>> = vec![Buffer::new()];
        let decided = [true];
        let view = view_fixture(&counts, &buffers, &decided, ProcessSet::full(1));
        assert!(Adversary::<u32>::next(&mut adv, &view).is_none());
    }

    #[test]
    fn fair_adversary_skips_blocked() {
        let mut adv = FairAdversary::new(2, 10);
        let counts = [0u64, 0];
        let buffers: Vec<Buffer<u32>> = vec![Buffer::new(), Buffer::new()];
        let decided = [false, false];
        let mut view = view_fixture(&counts, &buffers, &decided, ProcessSet::full(2));
        view.ss_blocked = ProcessSet::singleton(ProcessId::new(0));
        let choice = Adversary::<u32>::next(&mut adv, &view).unwrap();
        assert_eq!(choice, Choice::step_all(ProcessId::new(1)));
    }

    #[test]
    fn scripted_adversary_replays_exactly() {
        let p0 = ProcessId::new(0);
        let mut adv = ScriptedAdversary::new(
            vec![Event::Step(p0), Event::Crash(p0)],
            vec![DeliveryChoice::All],
        );
        let counts = [0u64];
        let buffers: Vec<Buffer<u32>> = vec![Buffer::new()];
        let decided = [false];
        let view = view_fixture(&counts, &buffers, &decided, ProcessSet::full(1));
        assert_eq!(
            Adversary::<u32>::next(&mut adv, &view),
            Some(Choice {
                event: Event::Step(p0),
                delivery: DeliveryChoice::All
            })
        );
        assert_eq!(
            Adversary::<u32>::next(&mut adv, &view),
            Some(Choice::crash(p0))
        );
        assert!(adv.exhausted());
        assert_eq!(Adversary::<u32>::next(&mut adv, &view), None);
    }

    #[test]
    fn scripted_push_keeps_alignment() {
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        let mut adv = ScriptedAdversary::new(vec![], vec![]);
        adv.push(Event::Crash(p1), DeliveryChoice::Nothing);
        adv.push(Event::Step(p0), DeliveryChoice::All);
        let counts = [0u64, 0];
        let buffers: Vec<Buffer<u32>> = vec![Buffer::new(), Buffer::new()];
        let decided = [false, false];
        let view = view_fixture(&counts, &buffers, &decided, ProcessSet::full(2));
        assert_eq!(
            Adversary::<u32>::next(&mut adv, &view),
            Some(Choice::crash(p1))
        );
        assert_eq!(
            Adversary::<u32>::next(&mut adv, &view),
            Some(Choice {
                event: Event::Step(p0),
                delivery: DeliveryChoice::All
            })
        );
    }

    #[test]
    fn random_adversary_is_deterministic_per_seed() {
        let counts = [0u64, 0, 0];
        let buffers: Vec<Buffer<u32>> = vec![Buffer::new(), Buffer::new(), Buffer::new()];
        let decided = [false, false, false];
        let view = view_fixture(&counts, &buffers, &decided, ProcessSet::full(3));
        let run = |seed| {
            let mut adv = RandomAdversary::new(3, 10, seed);
            (0..10)
                .map(|_| Adversary::<u32>::next(&mut adv, &view))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
    }
}

#[cfg(test)]
mod chain_tests {
    use super::*;

    #[test]
    fn chain_hands_over_between_stages() {
        let p0 = ProcessId::new(0);
        let scripted = ScriptedAdversary::new(vec![Event::Step(p0)], vec![DeliveryChoice::Nothing]);
        let tail = FairAdversary::new(1, 2);
        let mut chain: ChainAdversary<u32> =
            ChainAdversary::new(vec![Box::new(scripted), Box::new(tail)]);
        let counts = [0u64];
        let buffers: Vec<Buffer<u32>> = vec![Buffer::new()];
        let decided = [false];
        let view = ExecView {
            time: Time::ZERO,
            next_global_step: StepIndex::FIRST,
            alive: ProcessSet::full(1),
            ss_blocked: ProcessSet::empty(),
            step_counts: &counts,
            buffers: &buffers,
            decided: &decided,
        };
        assert_eq!(
            chain.next(&view),
            Some(Choice {
                event: Event::Step(p0),
                delivery: DeliveryChoice::Nothing
            })
        );
        // Stage 1 exhausted → fair tail takes over for 2 events.
        assert_eq!(chain.next(&view), Some(Choice::step_all(p0)));
        assert_eq!(chain.next(&view), Some(Choice::step_all(p0)));
        assert_eq!(chain.next(&view), None);
    }
}
