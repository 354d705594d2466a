//! Queries over the step-level [`RunLog`] that [`run`](crate::run)
//! records.
//!
//! Each step is a run of events ended by one stamped per-process
//! `Close`: its `Deliver`s in delivery order, its `Suspect` reading if
//! non-empty, its `Send` if any. `Crash` events stand between steps.

use ssp_model::{ProcessId, ProcessSet, RunEvent, RunLog, StepStamp};

use crate::adversary::{DeliveryChoice, Event};

/// The process whose step `ev` ends, and the step's stamp, if `ev` is
/// a stamped per-process `Close`.
pub(crate) fn step_end<M>(ev: &RunEvent<M>) -> Option<(ProcessId, StepStamp)> {
    match ev {
        RunEvent::Close {
            process: Some(p),
            stamp: Some(stamp),
            ..
        } => Some((*p, *stamp)),
        _ => None,
    }
}

/// Number of steps `p` took.
#[must_use]
pub fn step_count<M>(log: &RunLog<M>, p: ProcessId) -> u64 {
    log.events()
        .iter()
        .filter(|ev| step_end(ev).is_some_and(|(q, _)| q == p))
        .count() as u64
}

/// The schedule skeleton: one [`Event`] per step or crash, in order —
/// what a [`ScriptedAdversary`](crate::ScriptedAdversary) replays,
/// optionally after surgery.
#[must_use]
pub fn schedule<M>(log: &RunLog<M>) -> Vec<Event> {
    log.events()
        .iter()
        .filter_map(|ev| match ev {
            RunEvent::Crash { process, .. } => Some(Event::Crash(*process)),
            ev => step_end(ev).map(|(p, _)| Event::Step(p)),
        })
        .collect()
}

/// Per step, in schedule order, the delivery keys `(src, sent_at)` it
/// received, as the [`DeliveryChoice`] that replays them.
pub(crate) fn delivery_script<M>(log: &RunLog<M>) -> Vec<DeliveryChoice> {
    let mut script = Vec::new();
    let mut keys = Vec::new();
    for ev in log.events() {
        if let RunEvent::Deliver {
            src,
            sent_at: Some(at),
            ..
        } = ev
        {
            keys.push((*src, *at));
        } else if step_end(ev).is_some() {
            script.push(DeliveryChoice::Keys(std::mem::take(&mut keys)));
        }
    }
    script
}

/// The sequence `S_p` of `p`'s local observations: for each step `p`
/// took, the `(src, payload)` pairs it received, in delivery order,
/// and its failure-detector value.
///
/// Two runs are *indistinguishable to `p`* up to a point iff these
/// sequences agree up to that point — the notion the proof of
/// Theorem 3.1 turns on.
#[must_use]
pub fn local_view<M: Clone>(
    log: &RunLog<M>,
    p: ProcessId,
) -> Vec<(Vec<(ProcessId, M)>, ProcessSet)> {
    let mut view = Vec::new();
    let mut received = Vec::new();
    let mut suspects = ProcessSet::empty();
    for ev in log.events() {
        match ev {
            RunEvent::Deliver {
                src,
                dst,
                sent_at: Some(_),
                payload: Some(m),
                ..
            } if *dst == p => received.push((*src, m.clone())),
            RunEvent::Suspect {
                observer,
                suspected,
            } if *observer == p => suspects = *suspected,
            ev if step_end(ev).is_some_and(|(q, _)| q == p) => view.push((
                std::mem::take(&mut received),
                std::mem::replace(&mut suspects, ProcessSet::empty()),
            )),
            _ => {}
        }
    }
    view
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ssp_model::events::DeliveryMatrix;
    use ssp_model::{StepIndex, Time};

    pub(crate) fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// The `Close` ending `proc_`'s step at clock `time`, schedule
    /// position `step`, own step `own`.
    pub(crate) fn close(proc_: usize, time: u64, step: u64, own: u64) -> RunEvent<u32> {
        RunEvent::Close {
            round: None,
            process: Some(p(proc_)),
            stamp: Some(StepStamp {
                time: Time::new(time),
                global_step: StepIndex::new(step),
                own_step: own,
            }),
            heard: DeliveryMatrix::step(ProcessSet::empty()),
        }
    }

    pub(crate) fn send(src: usize, dst: usize, at: u64, v: u32) -> RunEvent<u32> {
        RunEvent::Send {
            src: p(src),
            dst: p(dst),
            round: None,
            at: Some(StepIndex::new(at)),
            payload: Some(v),
        }
    }

    pub(crate) fn deliver(src: usize, dst: usize, at: u64, v: u32) -> RunEvent<u32> {
        RunEvent::Deliver {
            src: p(src),
            dst: p(dst),
            round: None,
            sent_at: Some(StepIndex::new(at)),
            payload: Some(v),
        }
    }

    pub(crate) fn crash(proc_: usize, time: u64) -> RunEvent<u32> {
        RunEvent::Crash {
            process: p(proc_),
            round: None,
            time: Some(Time::new(time)),
        }
    }

    pub(crate) fn log_of(n: usize, events: Vec<RunEvent<u32>>) -> RunLog<u32> {
        let mut log = RunLog::new(n);
        for ev in events {
            log.push(ev);
        }
        log
    }

    /// p1 sends 7 to p2 and crashes; p2 then receives it.
    fn sample_log() -> RunLog<u32> {
        log_of(
            2,
            vec![
                send(0, 1, 0, 7),
                close(0, 0, 0, 0),
                crash(0, 1),
                deliver(0, 1, 0, 7),
                close(1, 2, 1, 0),
            ],
        )
    }

    #[test]
    fn schedule_and_delivery_script_roundtrip() {
        let log = sample_log();
        assert_eq!(
            schedule(&log),
            vec![Event::Step(p(0)), Event::Crash(p(0)), Event::Step(p(1))]
        );
        assert_eq!(
            delivery_script(&log),
            vec![
                DeliveryChoice::Keys(vec![]),
                DeliveryChoice::Keys(vec![(p(0), StepIndex::new(0))])
            ]
        );
    }

    #[test]
    fn local_views_are_per_process() {
        let log = sample_log();
        let v0 = local_view(&log, p(0));
        let v1 = local_view(&log, p(1));
        assert_eq!(v0, vec![(vec![], ProcessSet::empty())]);
        assert_eq!(v1, vec![(vec![(p(0), 7)], ProcessSet::empty())]);
        assert_eq!(step_count(&log, p(0)), 1);
        assert_eq!(step_count(&log, p(1)), 1);
    }
}
