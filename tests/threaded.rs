//! E12 — end-to-end runs on the threaded runtime: the same round
//! algorithms, real threads, real channels, real clocks.

use ssp::algos::{EarlyDeciding, FOptFloodSet, FloodSet, FloodSetWs, A1};
use ssp::model::{check_uniform_consensus, check_uniform_consensus_strong, InitialConfig, Round};
use ssp::runtime::{FaultPlan, RuntimeBuilder, RuntimeConfig, ThreadCrash};

mod common;
use common::p;
use ssp::rounds::RoundModel;

#[test]
fn floodset_n5_with_two_crashes() {
    let config = InitialConfig::new(vec![9u64, 0, 4, 7, 2]);
    let runtime = RuntimeConfig::ss_flavor(5, 1)
        .with_crash(
            p(1),
            ThreadCrash {
                round: 1,
                after_sends: 3,
                sends_to: None,
            },
        )
        .with_crash(
            p(3),
            ThreadCrash {
                round: 2,
                after_sends: 1,
                sends_to: None,
            },
        );
    let result = RuntimeBuilder::new(&FloodSet, &config)
        .t(2)
        .runtime(runtime)
        .run()
        .unwrap();
    check_uniform_consensus_strong(&result.outcome).unwrap();
    assert_eq!(result.pending_messages, 0, "RS policy drains everything");
}

#[test]
fn a1_failure_free_decides_in_round_1_on_threads() {
    for n in [3usize, 5, 8] {
        let config = InitialConfig::new((0..n as u64).rev().collect());
        let result = RuntimeBuilder::new(&A1, &config)
            .runtime(RuntimeConfig::ss_flavor(n, 5))
            .run()
            .unwrap();
        check_uniform_consensus_strong(&result.outcome).unwrap();
        assert_eq!(
            result.outcome.latency_degree(),
            Some(1),
            "Λ(A1) = 1 at n={n}"
        );
    }
    let config = InitialConfig::new(vec![3u64, 1, 2]);
    let result = RuntimeBuilder::new(&A1, &config)
        .runtime(RuntimeConfig::sp_flavor(3, 5))
        .run()
        .unwrap();
    assert!(result.outcome.all_correct_decided());
}

#[test]
fn early_deciding_failure_free_on_threads() {
    let config = InitialConfig::new(vec![5u64, 2, 8, 6]);
    let result = RuntimeBuilder::new(&EarlyDeciding, &config)
        .t(3)
        .runtime(RuntimeConfig::ss_flavor(4, 3))
        .run()
        .unwrap();
    check_uniform_consensus_strong(&result.outcome).unwrap();
    assert_eq!(result.outcome.latency_degree(), Some(2), "f=0 ⇒ f+2 rounds");
}

#[test]
fn f_opt_with_initial_crashes_decides_round_1_on_threads() {
    let config = InitialConfig::new(vec![5u64, 2, 8]);
    let runtime = RuntimeConfig::ss_flavor(3, 4).with_crash(
        p(2),
        ThreadCrash {
            round: 1,
            after_sends: 0,
            sends_to: None,
        },
    );
    let result = RuntimeBuilder::new(&FOptFloodSet, &config)
        .t(1)
        .runtime(runtime)
        .run()
        .unwrap();
    check_uniform_consensus_strong(&result.outcome).unwrap();
    assert_eq!(
        result.outcome.latency_degree(),
        Some(1),
        "Lat(F_Opt, t) = 1"
    );
}

#[test]
fn a1_decides_after_p1_partial_crash_on_threads() {
    let config = InitialConfig::new(vec![3u64, 8, 9, 5]);
    // p1 reaches itself and p2 before dying; relay completes the run.
    let runtime = RuntimeConfig::ss_flavor(4, 6).with_crash(
        p(0),
        ThreadCrash {
            round: 1,
            after_sends: 2,
            sends_to: None,
        },
    );
    let result = RuntimeBuilder::new(&A1, &config)
        .t(1)
        .runtime(runtime)
        .run()
        .unwrap();
    check_uniform_consensus_strong(&result.outcome).unwrap();
    for (_, o) in result.outcome.iter() {
        if o.is_correct() {
            assert_eq!(o.decision.as_ref().unwrap().0, 3, "v1 wins via relay");
        }
    }
}

#[test]
fn sp_flavor_produces_real_pending_messages() {
    // The §5.3 anomaly from its fixed, documented seed: p1 broadcasts
    // round 1 with both outgoing links scripted slow, decides its own
    // value via self-delivery, then crashes in round 2 before relaying.
    let config = InitialConfig::new(vec![10u64, 11, 12]);
    let plan = FaultPlan::section_5_3();
    let result = RuntimeBuilder::new(&A1, &config).plan(plan).run().unwrap();
    assert!(
        check_uniform_consensus(&result.outcome).is_err(),
        "the §5.3 anomaly must appear: {}",
        result.outcome
    );
    assert_eq!(
        result.outcome.outcome(p(0)).decision,
        Some((10, Round::FIRST))
    );
    assert_eq!(
        result.trace.pending().len(),
        2,
        "both withheld broadcasts are pending messages"
    );
}

#[test]
fn floodset_ws_immune_on_threads() {
    // The exact adversary that defeats A1 leaves FloodSetWs intact.
    let config = InitialConfig::new(vec![10u64, 11, 12]);
    let plan = FaultPlan::section_5_3();
    let result = RuntimeBuilder::new(&FloodSetWs, &config)
        .plan(plan)
        .run()
        .unwrap();
    check_uniform_consensus(&result.outcome).unwrap();
}

#[test]
fn decide_then_crash_is_visible_to_the_checker() {
    // A crash scripted beyond the horizon lets the process finish (and
    // decide) yet marks it faulty — the uniform-agreement quantifier
    // over faulty deciders stays meaningful on the runtime too.
    let config = InitialConfig::new(vec![4u64, 6, 2]);
    let runtime = RuntimeConfig::ss_flavor(3, 21).with_crash(
        p(1),
        ThreadCrash {
            round: 3,
            after_sends: 0,
            sends_to: None,
        },
    );
    let result = RuntimeBuilder::new(&FloodSet, &config)
        .t(1)
        .runtime(runtime)
        .run()
        .unwrap();
    let o = result.outcome.outcome(p(1));
    assert!(o.decision.is_some(), "decided before the scripted crash");
    assert_eq!(o.crashed_in, Some(Round::new(3)));
    check_uniform_consensus_strong(&result.outcome).unwrap();
}

#[test]
fn atomic_commit_runs_on_threads_too() {
    use ssp::commit::{check_nbac, NonTriviality, VoteFlood};
    // All-Yes votes; p2 crashes mid-round-1 after reaching two peers:
    // the SDD-boosted synchronous protocol still commits.
    let config = InitialConfig::new(vec![true, true, true, true]);
    let runtime = RuntimeConfig::ss_flavor(4, 31).with_crash(
        p(1),
        ThreadCrash {
            round: 1,
            after_sends: 3,
            sends_to: None,
        },
    );
    let result = RuntimeBuilder::new(&VoteFlood, &config)
        .t(2)
        .runtime(runtime)
        .run()
        .unwrap();
    check_nbac(&result.outcome, NonTriviality::SddBoosted, true).unwrap();
    for (_, o) in result.outcome.iter() {
        if o.is_correct() {
            assert!(o.decision.as_ref().unwrap().0, "commit");
        }
    }
}

#[test]
fn pending_votes_abort_on_threads() {
    use ssp::commit::{check_nbac, NonTriviality, VoteFloodWs};
    // The SP flavour: p1's vote to p2 is slowed into pending-ness and
    // p1 crashes mid-broadcast — the survivors must abort despite
    // all-Yes votes. Seed 98 derives exactly that plan:
    // crash(p1@r1+2) slow(p1→p2@r1).
    let config = InitialConfig::new(vec![true, true, true]);
    let plan = FaultPlan::from_seed(98, 3, 1, 2, RoundModel::Rws);
    assert_eq!(
        plan.to_string(),
        "plan[seed=98 n=3 t=1 horizon=2 model=RWS crash(p1@r1+2) slow(p1→p2@r1)]"
    );
    let result = RuntimeBuilder::new(&VoteFloodWs, &config)
        .plan(plan)
        .run()
        .unwrap();
    check_nbac(&result.outcome, NonTriviality::Classic, false).unwrap();
    for (_, o) in result.outcome.iter() {
        if o.is_correct() {
            assert!(!o.decision.as_ref().unwrap().0, "abort");
        }
    }
}

#[test]
fn early_close_crash_mid_burst_keeps_the_scripted_cut() {
    use ssp::model::{ProcessSet, RunEvent};
    // Every A1 process decides in round 1, retires at the start of
    // round 2 and bursts its relay. The victim dies during that burst,
    // after a prefix of its send slots or after an explicit receiver
    // set: the retire round, the crash round and the reached receivers
    // must all survive, and none of its round-2 wires is delivered
    // (every receiver has retired too).
    let config = InitialConfig::new(vec![4u64, 9, 2]);
    let cuts = [
        (p(0), ThreadCrash::prefix(2, 1), ProcessSet::singleton(p(0))),
        (
            p(1),
            ThreadCrash::prefix(2, 2),
            ProcessSet::from_iter([p(0), p(1)]),
        ),
        (
            p(1),
            ThreadCrash::sending_to(2, ProcessSet::singleton(p(2))),
            ProcessSet::singleton(p(2)),
        ),
    ];
    for (victim, crash, reached) in cuts {
        let runtime = RuntimeConfig::ss_flavor(3, 5)
            .with_early_close(true)
            .with_crash(victim, crash);
        let result = RuntimeBuilder::new(&A1, &config)
            .runtime(runtime)
            .run()
            .unwrap();
        let trace = &result.trace;
        assert_eq!(trace.retired, vec![Some(Round::new(2)); 3], "{crash:?}");
        let mut crashes = vec![None; 3];
        crashes[victim.index()] = Some(Round::new(2));
        assert_eq!(trace.crashes, crashes, "{crash:?}");
        let cut = trace.schedule().crash_of(victim).expect("victim crashed");
        assert_eq!(cut.sends_to, reached, "{crash:?}");
        let round_2_receivers: Vec<_> = trace
            .run_log()
            .events()
            .iter()
            .filter_map(|e| match e {
                RunEvent::Deliver {
                    src, dst, round, ..
                } if *src == victim && *round == Some(Round::new(2)) => Some(*dst),
                _ => None,
            })
            .collect();
        assert!(round_2_receivers.is_empty(), "{round_2_receivers:?}");
        check_uniform_consensus_strong(&result.outcome).unwrap();
        trace.validate().unwrap();
    }
}
