//! Message complexity via the canonical run log: the delivered-message
//! counts of each algorithm, failure-free and under crashes, read from
//! the delivery matrix each lockstep `Close` carries. The
//! [`CountingObserver`] path (`ssp_lab::message_complexity_rs`) must
//! agree — both are projections of the same [`RunLog`].

use ssp::algos::{FOptFloodSet, FloodSet, A1};
use ssp::lab::message_complexity_rs;
use ssp::model::{
    ConsensusOutcome, DeliveryMatrix, InitialConfig, ProcessId, ProcessSet, Round, RunEvent,
    RunLog, RunLogObserver, Value,
};
use ssp::rounds::{run_rs_observed, CrashSchedule, RoundAlgorithm, RoundCrash, RoundProcess};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Runs `algo` in `RS`, keeping the whole run log.
fn run_logged<V: Value, A: RoundAlgorithm<V>>(
    algo: &A,
    config: &InitialConfig<V>,
    t: usize,
    schedule: &CrashSchedule,
) -> (
    ConsensusOutcome<V>,
    RunLog<<A::Process as RoundProcess>::Msg>,
) {
    let mut obs = RunLogObserver::new(config.n());
    let outcome = run_rs_observed(algo, config, t, schedule, &mut obs).unwrap();
    (outcome, obs.into_log())
}

/// The delivery matrix of every executed round, in round order.
fn rounds<M>(log: &RunLog<M>) -> Vec<&DeliveryMatrix> {
    log.events()
        .iter()
        .filter_map(|e| match e {
            RunEvent::Close {
                round: Some(_),
                process: None,
                heard,
                ..
            } => Some(heard),
            _ => None,
        })
        .collect()
}

#[test]
fn floodset_delivers_n_squared_per_round() {
    for n in [3usize, 4, 5] {
        let t = 1;
        let config = InitialConfig::new((0..n as u64).collect());
        let (outcome, log) = run_logged(&FloodSet, &config, t, &CrashSchedule::none(n));
        assert!(outcome.all_correct_decided());
        let rounds = rounds(&log);
        assert_eq!(rounds.len(), t + 1, "t+1 recorded rounds");
        for heard in &rounds {
            assert_eq!(heard.delivered(), n * n, "full flood each round");
        }
        assert_eq!(log.total_delivered(), n * n * (t + 1));
        // The counting observer tallies the same canonical events.
        let counts = message_complexity_rs(&FloodSet, &config, t, &CrashSchedule::none(n));
        assert_eq!(counts.delivers as usize, log.total_delivered());
        assert_eq!(counts.closes as usize, rounds.len());
        assert_eq!(counts.crashes, 0);
    }
}

#[test]
fn a1_failure_free_delivers_n_plus_n_squared() {
    // Round 1: only p1 broadcasts (n deliveries, self included).
    // Round 2: everyone has decided and relays (n² deliveries).
    for n in [3usize, 5] {
        let config = InitialConfig::new((0..n as u64).collect());
        let (_, log) = run_logged(&A1, &config, 1, &CrashSchedule::none(n));
        let rounds = rounds(&log);
        assert_eq!(rounds[0].delivered(), n);
        assert_eq!(rounds[1].delivered(), n * n);
    }
}

#[test]
fn crash_reduces_delivered_messages() {
    let n = 4;
    let config = InitialConfig::new(vec![0u64, 1, 2, 3]);
    let mut schedule = CrashSchedule::none(n);
    schedule.crash(
        p(1),
        RoundCrash {
            round: Round::FIRST,
            sends_to: ProcessSet::singleton(p(0)),
        },
    );
    let (outcome, log) = run_logged(&FloodSet, &config, 1, &schedule);
    assert!(outcome.all_correct_decided());
    let rounds = rounds(&log);
    // Round 1: 3 full senders × 3 surviving receivers (9) + p2's
    // partial send to p1 (1) = 10. (p2 itself receives nothing: it
    // crashed before its receive phase.)
    assert_eq!(rounds[0].delivered(), 10);
    assert!(rounds[0].heard(p(0), p(1)));
    assert!(!rounds[0].heard(p(2), p(1)));
    // Round 2: 3 alive senders × 3 alive receivers.
    assert_eq!(rounds[1].delivered(), 9);
    // The observer path sees the crash and the same traffic.
    let counts = message_complexity_rs(&FloodSet, &config, 1, &schedule);
    assert_eq!(counts.delivers as usize, log.total_delivered());
    assert_eq!(counts.crashes, 1);
}

#[test]
fn f_opt_fast_path_saves_a_round_of_traffic() {
    let n = 4;
    let t = 2;
    let config = InitialConfig::new(vec![5u64, 3, 0, 1]);
    let mut schedule = CrashSchedule::none(n);
    for i in [2usize, 3] {
        schedule.crash(
            p(i),
            RoundCrash {
                round: Round::FIRST,
                sends_to: ProcessSet::empty(),
            },
        );
    }
    let (outcome, log) = run_logged(&FOptFloodSet, &config, t, &schedule);
    assert_eq!(outcome.latency_degree(), Some(1));
    // After the round-1 decision the survivors keep sending only (D, v)
    // notifications — same count, but the *rounds executed* stay t+1;
    // the saving is in decision latency, not raw message count.
    let rounds = rounds(&log);
    assert_eq!(rounds.len(), t + 1);
    assert_eq!(rounds[0].delivered(), 4, "2 alive × 2 receivers");
}
