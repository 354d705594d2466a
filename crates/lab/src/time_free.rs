//! Time-freeness (§2.7), executable.
//!
//! A problem is *time-free* when its verdict on a run depends only on
//! each process's sequence of steps `S_i` — not on how those sequences
//! interleave or when they happen. This module makes the notion
//! testable: [`reorder_preserving_views`] takes a recorded run log and
//! produces a *different* global schedule with identical per-process
//! projections (same deliveries at the same own-steps, causality
//! respected). Replaying it must yield identical outputs for any
//! deterministic automata — which property tests assert, and which is
//! exactly why the paper may restrict attention to time-free problems
//! when comparing `SS` and `SP`.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ssp_model::{ProcessId, RunEvent, RunLog, StepIndex};
use ssp_sim::{DeliveryChoice, Event};

/// One queued per-process event awaiting placement.
#[derive(Debug, Clone)]
enum Pending {
    /// A step: the sends it received, as `(src, ordinal among src's
    /// sends)`, and the ordinal of its own send, if it sends.
    Step {
        keys: Vec<(ProcessId, usize)>,
        send: Option<usize>,
    },
    /// A crash.
    Crash,
}

/// Produces a new schedule + delivery script with the same per-process
/// projections as the step-level `log` but a (generally) different
/// interleaving, chosen pseudo-randomly from the causally valid ones.
///
/// The result can be replayed with
/// [`ScriptedAdversary::new`](ssp_sim::ScriptedAdversary): determinism
/// of the automata then forces identical outputs — the §2.7 invariance.
///
/// Only meaningful for `ModelKind::Async` runs: `SS` constraints and
/// `SP` detector values are time-sensitive by design.
///
/// # Panics
///
/// Panics if the log is internally inconsistent (a delivery without
/// a matching send).
#[must_use]
pub fn reorder_preserving_views<M>(
    log: &RunLog<M>,
    seed: u64,
) -> (Vec<Event>, Vec<DeliveryChoice>) {
    let n = log.universe_size();
    // Original send ordinals: (src, original sent_at) → per-src ordinal.
    let mut send_ordinal: HashMap<(ProcessId, StepIndex), usize> = HashMap::new();
    let mut sends_seen = vec![0usize; n];
    // Per-process queues of pending events.
    let mut queues: Vec<Vec<Pending>> = vec![Vec::new(); n];
    // The current step's received sends and its own send's ordinal.
    let mut keys = Vec::new();
    let mut send = None;
    for ev in log.events() {
        match ev {
            RunEvent::Deliver {
                src,
                sent_at: Some(at),
                ..
            } => {
                let ordinal = send_ordinal
                    .get(&(*src, *at))
                    .expect("delivery without matching send");
                keys.push((*src, *ordinal));
            }
            RunEvent::Send {
                src, at: Some(at), ..
            } => {
                send_ordinal.insert((*src, *at), sends_seen[src.index()]);
                send = Some(sends_seen[src.index()]);
                sends_seen[src.index()] += 1;
            }
            RunEvent::Close {
                process: Some(p),
                stamp: Some(_),
                ..
            } => queues[p.index()].push(Pending::Step {
                keys: std::mem::take(&mut keys),
                send: send.take(),
            }),
            RunEvent::Crash { process, .. } => queues[process.index()].push(Pending::Crash),
            _ => {}
        }
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut heads = vec![0usize; n];
    // (src, ordinal) → new global step index of that send.
    let mut placed_send: HashMap<(ProcessId, usize), u64> = HashMap::new();
    let mut new_events = Vec::new();
    let mut new_deliveries = Vec::new();
    let total: usize = queues.iter().map(Vec::len).sum();

    while new_events.len() < total {
        // Collect eligible process heads.
        let eligible: Vec<usize> = (0..n)
            .filter(|&i| match queues[i].get(heads[i]) {
                None => false,
                Some(Pending::Crash) => true,
                Some(Pending::Step { keys, .. }) => {
                    keys.iter().all(|key| placed_send.contains_key(key))
                }
            })
            .collect();
        assert!(!eligible.is_empty(), "causal deadlock: inconsistent log");
        let i = eligible[rng.gen_range(0..eligible.len())];
        let p = ProcessId::new(i);
        let pending = queues[i][heads[i]].clone();
        heads[i] += 1;
        match pending {
            Pending::Crash => new_events.push(Event::Crash(p)),
            Pending::Step { keys, send } => {
                let remapped: Vec<(ProcessId, StepIndex)> = keys
                    .iter()
                    .map(|key| (key.0, StepIndex::new(placed_send[key])))
                    .collect();
                if let Some(ordinal) = send {
                    placed_send.insert((p, ordinal), new_deliveries.len() as u64);
                }
                new_events.push(Event::Step(p));
                new_deliveries.push(DeliveryChoice::Keys(remapped));
            }
        }
    }
    (new_events, new_deliveries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_model::ProcessId;
    use ssp_sim::{
        local_view, run, schedule, BoxedAutomaton, ModelKind, RandomAdversary, ScriptedAdversary,
        StepAutomaton, StepContext,
    };

    /// Ping-pong counter: replies to every message with its value + 1,
    /// outputs the largest value seen once it exceeds a threshold.
    #[derive(Debug)]
    struct Counter {
        peer: ProcessId,
        best: u32,
        threshold: u32,
        kicked_off: bool,
        starter: bool,
    }

    impl StepAutomaton for Counter {
        type Msg = u32;
        type Output = u32;

        fn step(&mut self, ctx: StepContext<'_, u32>) -> Option<(ProcessId, u32)> {
            let mut reply = None;
            for env in ctx.received {
                if env.payload > self.best {
                    self.best = env.payload;
                }
                reply = Some(env.payload + 1);
            }
            if self.starter && !self.kicked_off {
                self.kicked_off = true;
                return Some((self.peer, 1));
            }
            reply
                .filter(|v| *v <= self.threshold)
                .map(|v| (self.peer, v))
        }

        fn output(&self) -> Option<u32> {
            (self.best >= self.threshold).then_some(self.best)
        }
    }

    fn system() -> Vec<BoxedAutomaton<u32, u32>> {
        vec![
            Box::new(Counter {
                peer: ProcessId::new(1),
                best: 0,
                threshold: 6,
                kicked_off: false,
                starter: true,
            }),
            Box::new(Counter {
                peer: ProcessId::new(0),
                best: 0,
                threshold: 6,
                kicked_off: false,
                starter: false,
            }),
        ]
    }

    #[test]
    fn reordered_schedules_reproduce_outputs() {
        for seed in 0..15u64 {
            let mut adv = RandomAdversary::new(2, 150, seed).with_deliver_all_probability(0.6);
            let original = run(ModelKind::Async, system(), &mut adv, 10_000).unwrap();
            for reseed in [7u64, 21, 99] {
                let (events, deliveries) = reorder_preserving_views(&original.log, reseed);
                let mut scripted = ScriptedAdversary::new(events, deliveries);
                let replayed = run(ModelKind::Async, system(), &mut scripted, 10_000).unwrap();
                assert_eq!(
                    replayed.outputs, original.outputs,
                    "seed {seed} reseed {reseed}: outputs must be time-free"
                );
                for i in 0..2 {
                    let p = ProcessId::new(i);
                    assert_eq!(
                        local_view(&replayed.log, p),
                        local_view(&original.log, p),
                        "seed {seed} reseed {reseed}: local views must be preserved"
                    );
                }
            }
        }
    }

    #[test]
    fn reordering_actually_changes_the_interleaving_sometimes() {
        let mut adv = RandomAdversary::new(2, 100, 3);
        let original = run(ModelKind::Async, system(), &mut adv, 10_000).unwrap();
        let mut changed = false;
        for reseed in 0..10u64 {
            let (events, _) = reorder_preserving_views(&original.log, reseed);
            if events != schedule(&original.log) {
                changed = true;
            }
        }
        assert!(
            changed,
            "ten reseeds should produce at least one new interleaving"
        );
    }
}
