//! E11 — the emulations of §4.1/§4.2.
//!
//! * `RS` on `SS`: running a round algorithm through the step-level
//!   `SS` executor (with the `K_r` budget schedule) must produce
//!   exactly the outcome of the direct `RS` executor under the derived
//!   crash schedule — for fair *and* random legal schedules, which
//!   stress-tests the budget recurrence.
//! * `RWS` on `SP`: the receive-until-heard-or-suspected emulation
//!   satisfies the weak round synchrony property (Lemma 4.1), checked
//!   on traces.

use ssp::algos::{FloodSet, FloodSetWs, A1};
use ssp::model::{ConsensusOutcome, InitialConfig, ProcessId, ProcessOutcome, ProcessSet, Round};
use ssp::model::{RunEvent, RunLogObserver};
use ssp::rounds::{
    cumulative_round_budget, round_of_step, run_rs, CrashSchedule, EmuMsg, RoundAlgorithm,
    RoundCrash, RsOnSs, RwsOnSp,
};
use ssp::sim::{
    run, run_observed, schedule, BoxedAutomaton, DetectionDelays, FairAdversary, ModelKind,
    RandomAdversary,
};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Derives the RS crash schedule equivalent to "crash after `k`
/// own-steps" in the RS-on-SS emulation.
fn derived_schedule(
    phi: u64,
    delta: u64,
    n: usize,
    horizon: u32,
    crash_after: &[Option<u64>],
) -> CrashSchedule {
    let mut schedule = CrashSchedule::none(n);
    for (i, quota) in crash_after.iter().enumerate() {
        let Some(k) = quota else { continue };
        let r = round_of_step(phi, delta, n, horizon, *k);
        if r > horizon {
            // Finished every round before crashing: the "decide then
            // crash" shape, round horizon+1.
            schedule.crash(
                p(i),
                RoundCrash {
                    round: Round::new(horizon + 1),
                    sends_to: ProcessSet::empty(),
                },
            );
            continue;
        }
        let base = cumulative_round_budget(phi, delta, n, r - 1);
        let sends_done = (k - base).min(n as u64) as usize;
        let sends_to: ProcessSet = (0..sends_done).map(p).collect();
        schedule.crash(
            p(i),
            RoundCrash {
                round: Round::new(r),
                sends_to,
            },
        );
    }
    schedule
}

fn run_emulation<A>(
    algo: &A,
    config: &InitialConfig<u64>,
    t: usize,
    phi: u64,
    delta: u64,
    crash_after: &[Option<u64>],
    seed: Option<u64>,
) -> ConsensusOutcome<u64>
where
    A: RoundAlgorithm<u64>,
    A::Process: 'static,
    <A::Process as ssp::rounds::RoundProcess>::Msg: 'static,
{
    let n = config.n();
    let horizon = algo.round_horizon(n, t);
    let budget = cumulative_round_budget(phi, delta, n, horizon);
    let automata: Vec<BoxedAutomaton<EmuMsg<_>, (u64, Round)>> = (0..n)
        .map(|i| {
            Box::new(RsOnSs::new(
                algo.spawn(p(i), n, t, *config.input(p(i))),
                p(i),
                n,
                horizon,
                phi,
                delta,
            )) as _
        })
        .collect();
    let events = budget * (n as u64) * 4 + 100;
    let result = match seed {
        None => {
            let mut adv = FairAdversary::new(n, events);
            for (i, q) in crash_after.iter().enumerate() {
                if let Some(q) = q {
                    adv = adv.with_crash(p(i), *q);
                }
            }
            run(ModelKind::ss(phi, delta), automata, &mut adv, events + 10)
        }
        Some(seed) => {
            let mut adv = RandomAdversary::new(n, events, seed);
            for (i, q) in crash_after.iter().enumerate() {
                if let Some(q) = q {
                    adv = adv.with_crash(p(i), *q);
                }
            }
            run(ModelKind::ss(phi, delta), automata, &mut adv, events + 10)
        }
    }
    .expect("legal SS run");

    let schedule = derived_schedule(phi, delta, n, horizon, crash_after);
    let outcomes = (0..n)
        .map(|i| ProcessOutcome {
            input: *config.input(p(i)),
            decision: result.outputs[i],
            crashed_in: schedule.crash_of(p(i)).map(|c| c.round),
        })
        .collect();
    ConsensusOutcome::new(outcomes)
}

/// The equivalence sweep: emulated outcome == direct RS outcome, for
/// every single-crash plan at every own-step cut point.
#[test]
fn rs_on_ss_matches_direct_rs_under_fair_schedules() {
    let (phi, delta) = (1u64, 1u64);
    let n = 3;
    let t = 1;
    let config = InitialConfig::new(vec![4u64, 1, 7]);
    let horizon = RoundAlgorithm::<u64>::round_horizon(&FloodSet, n, t);
    let budget = cumulative_round_budget(phi, delta, n, horizon);
    // Failure-free first.
    let emulated = run_emulation(&FloodSet, &config, t, phi, delta, &[None, None, None], None);
    let direct = run_rs(&FloodSet, &config, t, &CrashSchedule::none(n));
    assert_eq!(emulated, direct);
    // Every crash point of every process.
    for victim in 0..n {
        for k in 0..=budget + 1 {
            let mut crash_after = vec![None, None, None];
            crash_after[victim] = Some(k);
            let emulated = run_emulation(&FloodSet, &config, t, phi, delta, &crash_after, None);
            let schedule = derived_schedule(phi, delta, n, horizon, &crash_after);
            let direct = run_rs(&FloodSet, &config, t, &schedule);
            assert_eq!(emulated, direct, "victim p{} at own-step {k}", victim + 1);
        }
    }
}

/// The same equivalence must hold under *random* legal SS schedules —
/// the budget `K_r` is schedule-independent.
#[test]
fn rs_on_ss_matches_direct_rs_under_random_schedules() {
    let (phi, delta) = (2u64, 2u64);
    let n = 3;
    let t = 1;
    let config = InitialConfig::new(vec![9u64, 3, 5]);
    let horizon = RoundAlgorithm::<u64>::round_horizon(&A1, n, t);
    let budget = cumulative_round_budget(phi, delta, n, horizon);
    for seed in 0..12u64 {
        let k = (seed * 7 + 1) % (budget + 2);
        let crash_after = [Some(k), None, None];
        let emulated = run_emulation(&A1, &config, t, phi, delta, &crash_after, Some(seed));
        let schedule = derived_schedule(phi, delta, n, horizon, &crash_after);
        let direct = run_rs(&A1, &config, t, &schedule);
        assert_eq!(emulated, direct, "seed {seed}, crash at step {k}");
    }
}

/// Lemma 4.1 on actual RWS-on-SP traces: whenever a sender's round-`r`
/// message to some process is never delivered before that process
/// moves past round `r`, the sender crashes by the end of round `r+1`
/// (observable as: it is faulty and emits no round-(r+2) traffic).
#[test]
fn rws_on_sp_satisfies_weak_round_synchrony() {
    let n = 3;
    let t = 1;
    let config = InitialConfig::new(vec![4u64, 1, 7]);
    let horizon = RoundAlgorithm::<u64>::round_horizon(&FloodSetWs, n, t);
    for seed in 0..20u64 {
        let victim = (seed % n as u64) as usize;
        let crash_step = seed % 9;
        let automata: Vec<BoxedAutomaton<EmuMsg<_>, (u64, Round)>> = (0..n)
            .map(|i| {
                Box::new(RwsOnSp::new(
                    RoundAlgorithm::<u64>::spawn(&FloodSetWs, p(i), n, t, *config.input(p(i))),
                    p(i),
                    n,
                    horizon,
                )) as _
            })
            .collect();
        let mut adv = FairAdversary::new(n, 5_000).with_crash(p(victim), crash_step);
        let delays = DetectionDelays::uniform(1 + seed % 5);
        // The canonical observer pipeline replaces the old step-trace
        // scan: the run log carries every send and delivery directly.
        let mut obs = RunLogObserver::new(n);
        let result = run_observed(ModelKind::sp(delays), automata, &mut adv, 10_000, &mut obs)
            .expect("legal run");
        let log = obs.into_log();

        // Flatten the log: sends as (src, dst, round, sent_at), and
        // deliveries as (src, dst, sent_at, received_at) — a step's
        // deliveries inherit the global-step stamp of its closing event.
        let mut sends: Vec<(ssp::model::ProcessId, ssp::model::ProcessId, u32, u64)> = Vec::new();
        let mut deliveries: Vec<(ssp::model::ProcessId, ssp::model::ProcessId, u64, u64)> =
            Vec::new();
        let mut batch: Vec<(ssp::model::ProcessId, ssp::model::ProcessId, u64)> = Vec::new();
        for ev in log.events() {
            match ev {
                RunEvent::Send {
                    src,
                    dst,
                    at: Some(at),
                    payload: Some(m),
                    ..
                } => sends.push((*src, *dst, m.round, at.position())),
                RunEvent::Deliver {
                    src,
                    dst,
                    sent_at: Some(at),
                    ..
                } => batch.push((*src, *dst, at.position())),
                RunEvent::Close {
                    stamp: Some(st), ..
                } => {
                    for (s, d, a) in batch.drain(..) {
                        deliveries.push((s, d, a, st.global_step.position()));
                    }
                }
                _ => {}
            }
        }
        // Reconstruct per-process round starts (first send of each round).
        let mut first_send_step: Vec<Vec<Option<u64>>> =
            vec![vec![None; (horizon + 3) as usize]; n];
        for &(src, _, r, at) in &sends {
            let slot = &mut first_send_step[src.index()][r as usize];
            if slot.is_none() {
                *slot = Some(at);
            }
        }
        // For each sent round-r message, find whether its receiver got
        // it before moving past round r (approximated by the receiver's
        // first round-(r+1) send).
        for &(src, dst, r, sent_at) in &sends {
            if r + 2 > horizon {
                continue; // rounds r+2 beyond horizon are unobservable
            }
            let delivered_at = deliveries
                .iter()
                .find(|&&(s, d, a, _)| s == src && d == dst && a == sent_at)
                .map(|&(_, _, _, at)| at);
            let closed_at = first_send_step[dst.index()][(r + 1) as usize];
            let missed = match (delivered_at, closed_at) {
                (None, Some(_)) => true,
                (Some(d), Some(c)) => d >= c,
                _ => false, // receiver never reached round r+1
            };
            if missed {
                // Lemma 4.1: the sender crashes by end of round r+1 —
                // it must be faulty and silent from round r+2 on.
                assert!(
                    !result.pattern.is_correct(src),
                    "seed {seed}: correct {src} had a pending round-{r} message",
                );
                assert!(
                    first_send_step[src.index()][(r + 2) as usize].is_none(),
                    "seed {seed}: {src} sent round-{} traffic after a pending round-{r} message",
                    r + 2
                );
            }
        }
    }
}

/// The emulation cost table of §4.1: `K_r` grows geometrically in `r`
/// (factor `Φ+1`), linearly in `n` and `Δ` — and the lock-step `RS` on
/// `SS` pays it, while `RWS` on `SP` adapts to actual delays and takes
/// fewer steps for the same FloodSet run.
#[test]
fn emulation_budget_shape() {
    let (n, t) = (3, 1);
    let horizon = RoundAlgorithm::<u64>::round_horizon(&FloodSet, n, t);
    let spawn = |i: usize| RoundAlgorithm::<u64>::spawn(&FloodSet, p(i), n, t, i as u64);
    let rs: Vec<BoxedAutomaton<EmuMsg<_>, (u64, Round)>> = (0..n)
        .map(|i| Box::new(RsOnSs::new(spawn(i), p(i), n, horizon, 1, 1)) as _)
        .collect();
    let events = cumulative_round_budget(1, 1, n, horizon) * n as u64 + 64;
    let mut adv = FairAdversary::new(n, events);
    let rs_steps = schedule(
        &run(ModelKind::ss(1, 1), rs, &mut adv, events + 10)
            .expect("legal SS run")
            .log,
    )
    .len();
    let rws: Vec<BoxedAutomaton<EmuMsg<_>, (u64, Round)>> = (0..n)
        .map(|i| Box::new(RwsOnSp::new(spawn(i), p(i), n, horizon)) as _)
        .collect();
    let mut adv = FairAdversary::new(n, 50_000);
    let sp = ModelKind::sp(DetectionDelays::immediate());
    let rws_steps = schedule(&run(sp, rws, &mut adv, 60_000).expect("legal SP run").log).len();
    assert!(
        rws_steps < rs_steps,
        "RWS-on-SP {rws_steps} vs RS-on-SS {rs_steps}"
    );

    // Geometric in r.
    let k: Vec<u64> = (0..=5)
        .map(|r| cumulative_round_budget(1, 1, 3, r))
        .collect();
    for w in k.windows(3).skip(1) {
        let g1 = w[1] as f64 / w[0] as f64;
        let g2 = w[2] as f64 / w[1] as f64;
        assert!(g2 > 1.5 && g1 > 1.5, "geometric growth expected: {k:?}");
    }
    // Monotone in every parameter.
    assert!(cumulative_round_budget(2, 1, 3, 3) > cumulative_round_budget(1, 1, 3, 3));
    assert!(cumulative_round_budget(1, 4, 3, 3) > cumulative_round_budget(1, 1, 3, 3));
    assert!(cumulative_round_budget(1, 1, 5, 3) > cumulative_round_budget(1, 1, 3, 3));
}
