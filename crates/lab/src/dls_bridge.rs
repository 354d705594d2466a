//! The §1 side-claim, executable: *"In the system models of \[12\]
//! (Dwork–Lynch–Stockmeyer partial synchrony), time-out mechanisms can
//! be used to implement an eventually perfect failure detector"* — one
//! of the eight Chandra–Toueg classes, and the natural counterpart to
//! §3's timeouts-implement-`P`-in-`SS`.
//!
//! [`HeartbeatProcess`](crate::fd_bridge::HeartbeatProcess) runs in
//! the `DLS` executor ([`ModelKind::Dls`]) started with an optimistic
//! silence bound: it
//! suspects peers that exceed it, and — crucially — *retracts and
//! doubles its bound* when a suspected peer turns out to be alive.
//! Before the global stabilization time the adversary can starve
//! processes and force false suspicions; after it, the `SS` bounds
//! hold, so once the adaptive bound exceeds the true post-`gst`
//! silence bound there are no further mistakes: strong completeness +
//! *eventual* strong accuracy = `◇P`. The same construction in plain
//! `SS` (gst = 0) yields `P` from the start.

use ssp_model::ProcessId;
use ssp_sim::{ChainAdversary, DeliveryChoice, Event, FairAdversary, ModelKind, ScriptedAdversary};

use crate::fd_bridge::{run_heartbeats, HeartbeatExperiment};

/// Runs `n` heartbeat processes with initial silence bound
/// `initial_bound` under `DLS(phi, delta, gst)`: a scripted pre-`gst`
/// prefix starves process `starved` (forcing false suspicions), then a
/// fair tail runs for `tail_events`, optionally crashing `crash` after
/// its quota of steps.
///
/// # Panics
///
/// Panics if the executor rejects a generated schedule (cannot happen:
/// pre-`gst` scheduling is free and the tail is fair).
#[must_use]
#[allow(clippy::too_many_arguments)] // an experiment recipe, not an API surface
pub fn run_adaptive_experiment(
    n: usize,
    phi: u64,
    delta: u64,
    gst: u64,
    starved: ProcessId,
    initial_bound: u64,
    crash: Option<(ProcessId, u64)>,
    tail_events: u64,
) -> HeartbeatExperiment {
    // Pre-gst chaos: everyone except `starved` steps round-robin with
    // all deliveries withheld.
    let mut prefix_events = Vec::new();
    let others: Vec<ProcessId> = (0..n)
        .map(ProcessId::new)
        .filter(|p| *p != starved)
        .collect();
    let mut i = 0;
    while (prefix_events.len() as u64) < gst {
        prefix_events.push(Event::Step(others[i % others.len()]));
        i += 1;
    }
    let deliveries = vec![DeliveryChoice::Nothing; prefix_events.len()];
    let prefix = ScriptedAdversary::new(prefix_events, deliveries);
    let mut tail = FairAdversary::new(n, tail_events);
    if let Some((p, quota)) = crash {
        tail = tail.with_crash(p, quota);
    }
    let mut adversary: ChainAdversary<()> =
        ChainAdversary::new(vec![Box::new(prefix), Box::new(tail)]);
    run_heartbeats(
        ModelKind::dls(phi, delta, gst),
        n,
        initial_bound,
        &mut adversary,
        gst + tail_events + 10,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_fd::classify;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn pre_gst_chaos_forces_false_suspicions_yet_diamond_p_holds() {
        // Starve p1 for 120 pre-gst events with an optimistic bound of
        // 4: p2/p3 will falsely suspect it. After gst the bounds hold,
        // the suspicion is retracted, the timeout doubles, and no
        // further mistakes happen: ◇P but (in this run) not P.
        let exp = run_adaptive_experiment(3, 1, 1, 120, p(0), 4, None, 3_000);
        let props = classify(&exp.pattern, &exp.history, exp.horizon);
        assert!(exp.retractions > 0, "the chaos must actually fool someone");
        assert!(!props.strong_accuracy, "false suspicion happened: {props}");
        assert!(props.eventual_strong_accuracy, "{props}");
        assert!(props.strong_completeness, "{props}");
        assert!(props.is_eventually_perfect());
        assert!(!props.is_perfect());
    }

    #[test]
    fn crashes_after_stabilization_are_still_caught() {
        let exp = run_adaptive_experiment(3, 1, 1, 60, p(0), 4, Some((p(2), 40)), 4_000);
        let props = classify(&exp.pattern, &exp.history, exp.horizon);
        assert!(
            props.strong_completeness,
            "crashed p3 must be suspected: {props}"
        );
        assert!(props.eventual_strong_accuracy, "{props}");
        assert!(props.is_eventually_strong());
    }

    #[test]
    fn with_gst_zero_the_construction_is_perfect_if_bound_is_sound() {
        // gst = 0 ⇒ DLS = SS; with an initial bound already above the
        // true silence bound there is never a false suspicion: P.
        let sound_bound = crate::fd_bridge::heartbeat_silence_bound(1, 1, 3) + 1;
        let exp = run_adaptive_experiment(3, 1, 1, 0, p(0), sound_bound, Some((p(1), 7)), 2_000);
        let props = classify(&exp.pattern, &exp.history, exp.horizon);
        assert_eq!(exp.retractions, 0);
        assert!(props.is_perfect(), "{props}");
    }
}
