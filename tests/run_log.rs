//! E19 — the canonical run log: golden JSONL snapshots, serialization
//! round-trips, and observer transparency.
//!
//! The golden files under `tests/golden/` pin the exact byte-level
//! serialization of two reference runs (a crashed FloodSet `RS` run and
//! the §5.3 seed-519 runtime run). Regenerate them after an intentional
//! format change with `SSP_REGEN_GOLDEN=1 cargo test --test run_log`.

use core::fmt;

use proptest::prelude::*;

use ssp::algos::{FloodSet, FloodSetWs, SddSender, SsSddReceiver, A1};
use ssp::lab::{explore_rs, explore_rws, RoundModel, Verifier};
use ssp::model::{
    CountingObserver, InitialConfig, Observer, ProcessId, ProcessSet, Round, RunEvent, RunLog,
    RunLogObserver,
};
use ssp::rounds::{
    run_rs, run_rs_observed, run_rws_observed, CrashSchedule, PendingChoice, RoundCrash,
};
use ssp::runtime::{PlanModel, RuntimeBuilder, SECTION_5_3_SEED};
use ssp::sim::{run_observed, BoxedAutomaton, ModelKind, RandomAdversary};

mod common;
use common::{golden_check, p, section_5_3_config};

#[test]
fn floodset_rs_run_log_snapshot_is_byte_stable() {
    let config = InitialConfig::new(vec![4u64, 1, 7]);
    let mut schedule = CrashSchedule::none(3);
    schedule.crash(
        p(1),
        RoundCrash {
            round: Round::FIRST,
            sends_to: ProcessSet::singleton(p(0)),
        },
    );
    let run_once = || {
        let mut obs = RunLogObserver::new(3);
        run_rs_observed(&FloodSet, &config, 1, &schedule, &mut obs).unwrap();
        obs.into_log().to_jsonl()
    };
    let first = run_once();
    assert_eq!(first, run_once(), "identical runs serialize identically");
    golden_check("floodset_rs_n3.jsonl", &first);
}

#[test]
fn section_5_3_seed_runtime_log_snapshot_is_byte_stable() {
    let config = section_5_3_config();
    let run_once = || {
        RuntimeBuilder::new(&A1, &config)
            .model(PlanModel::Rws)
            .seed(SECTION_5_3_SEED)
            .run()
            .unwrap()
            .trace
            .run_log()
            .to_jsonl()
    };
    let first = run_once();
    assert_eq!(
        first,
        run_once(),
        "the seeded wall-clock run serializes identically run after run"
    );
    golden_check("seed519_a1_rws.jsonl", &first);
}

/// A sink that counts the `record` calls reaching it, whether or not it
/// is active.
struct RecordCounter {
    active: bool,
    calls: u64,
}

impl<M> Observer<M> for RecordCounter {
    fn active(&self) -> bool {
        self.active
    }

    fn record(&mut self, _event: RunEvent<M>) {
        self.calls += 1;
    }
}

/// `record` calls reaching one sink from each executor: the `RS` and
/// `RWS` round executors over every FloodSetWS run at n=3, t=1, and the
/// step executor over seeded SS runs of the SDD pair.
fn record_calls(active: bool) -> [u64; 3] {
    let mut sink = RecordCounter { active, calls: 0 };
    let mut calls = [0; 3];
    explore_rs(&FloodSetWs, 3, 1, &[0u64, 1], |run| {
        run_rs_observed(&FloodSetWs, run.config, 1, run.schedule, &mut sink).unwrap();
    });
    calls[0] = std::mem::take(&mut sink.calls);
    explore_rws(&FloodSetWs, 3, 1, &[0u64, 1], |run| {
        run_rws_observed(
            &FloodSetWs,
            run.config,
            1,
            run.schedule,
            run.pending,
            &mut sink,
        )
        .unwrap();
    });
    calls[1] = std::mem::take(&mut sink.calls);
    for input in [false, true] {
        for crash_after in [None, Some(0), Some(1)] {
            for seed in 0..4 {
                let automata: Vec<BoxedAutomaton<bool, bool>> = vec![
                    Box::new(SddSender::new(p(1), input)),
                    Box::new(SsSddReceiver::new(p(0), 1, 1)),
                ];
                let mut adv = RandomAdversary::new(2, 300, seed);
                if let Some(k) = crash_after {
                    adv = adv.with_crash(p(0), k);
                }
                run_observed(ModelKind::ss(1, 1), automata, &mut adv, 10_000, &mut sink).unwrap();
            }
        }
    }
    calls[2] = sink.calls;
    calls
}

/// The observer pipeline costs nothing when nobody listens: every
/// executor guards event construction with `Observer::active`, so an
/// inactive sink (what `NullObserver` is) receives not one `record`
/// call, while the same sink active receives events from all three
/// executors. The verifier's counting path sweeps the same space as its
/// `NullObserver` path.
#[test]
fn inactive_observer_receives_no_record_call() {
    assert_eq!(record_calls(false), [0, 0, 0]);
    assert!(record_calls(true).iter().all(|&calls| calls > 0));

    let sweep = |count: bool| {
        let v = Verifier::new(&FloodSetWs)
            .n(3)
            .t(1)
            .domain(&[0u64, 1])
            .model(RoundModel::Rws);
        if count { v.count_events() } else { v }.run()
    };
    let (plain, counted) = (sweep(false), sweep(true));
    assert_eq!(plain.runs, counted.runs, "same space");
    assert!(plain.events.is_none());
    assert!(counted.events.expect("count_events was requested").delivers > 0);
}

/// A payload wrapper whose `Debug` is the verbatim parsed text, so a
/// parsed log re-serializes to the exact input bytes.
struct Raw(String);

impl fmt::Debug for Raw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Strategy: a crash schedule for `n` processes with at most `t`
/// crashes inside `1..=max_round`.
fn crash_schedule(n: usize, t: usize, max_round: u32) -> impl Strategy<Value = CrashSchedule> {
    proptest::collection::vec(
        proptest::option::weighted(0.4, (1u32..=max_round, 0u64..(1 << n))),
        n,
    )
    .prop_map(move |slots| {
        let mut schedule = CrashSchedule::none(n);
        let mut budget = t;
        for (i, slot) in slots.into_iter().enumerate() {
            if budget == 0 {
                break;
            }
            if let Some((round, bits)) = slot {
                schedule.crash(
                    ProcessId::new(i),
                    RoundCrash {
                        round: Round::new(round),
                        sends_to: ProcessSet::from_bits(bits),
                    },
                );
                budget -= 1;
            }
        }
        schedule
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `to_jsonl ∘ from_jsonl = id` on executor-produced logs.
    #[test]
    fn run_log_round_trips_through_jsonl(
        inputs in proptest::collection::vec(0u64..4, 3),
        schedule in crash_schedule(3, 2, 3),
    ) {
        let config = InitialConfig::new(inputs);
        let mut obs = RunLogObserver::new(3);
        run_rs_observed(&FloodSet, &config, 2, &schedule, &mut obs).unwrap();
        let jsonl = obs.into_log().to_jsonl();
        let parsed: RunLog<Raw> =
            RunLog::from_jsonl(&jsonl, |raw| Some(Raw(raw.to_string()))).unwrap();
        prop_assert_eq!(parsed.to_jsonl(), jsonl);
    }

    /// Attaching an observer never changes the run: observer-off and
    /// observer-on executions produce identical outcomes, and the
    /// counting observer agrees with the full log's totals.
    #[test]
    fn observation_is_transparent(
        inputs in proptest::collection::vec(0u64..4, 3),
        schedule in crash_schedule(3, 2, 3),
    ) {
        let config = InitialConfig::new(inputs);
        let plain = run_rs(&FloodSet, &config, 2, &schedule);
        let mut log_obs = RunLogObserver::new(3);
        let logged = run_rs_observed(&FloodSet, &config, 2, &schedule, &mut log_obs).unwrap();
        prop_assert_eq!(&plain, &logged, "RunLogObserver is transparent");
        let mut counter = CountingObserver::new();
        let counted = run_rs_observed(&FloodSet, &config, 2, &schedule, &mut counter).unwrap();
        prop_assert_eq!(&plain, &counted, "CountingObserver is transparent");
        let log = log_obs.into_log();
        prop_assert_eq!(counter.counts().delivers, log.total_delivered() as u64);
        prop_assert_eq!(
            counter.counts().closes as usize,
            log.events()
                .iter()
                .filter(|e| matches!(e, ssp::model::RunEvent::Close { .. }))
                .count()
        );
    }

    /// An `RS` run is an `RWS` run with nothing pending: their logs are
    /// identical event-for-event, not merely outcome-equal.
    #[test]
    fn rs_and_empty_pending_rws_logs_agree(
        inputs in proptest::collection::vec(0u64..4, 3),
        schedule in crash_schedule(3, 1, 3),
    ) {
        let config = InitialConfig::new(inputs);
        let mut rs_obs = RunLogObserver::new(3);
        run_rs_observed(&ssp::algos::FloodSetWs, &config, 1, &schedule, &mut rs_obs).unwrap();
        let mut rws_obs = RunLogObserver::new(3);
        ssp::rounds::run_rws_observed(
            &ssp::algos::FloodSetWs,
            &config,
            1,
            &schedule,
            &PendingChoice::none(),
            &mut rws_obs,
        )
        .unwrap();
        let (rs_log, rws_log) = (rs_obs.into_log(), rws_obs.into_log());
        prop_assert!(
            rs_log.first_divergence(&rws_log).is_none(),
            "{}",
            rs_log.first_divergence(&rws_log).unwrap()
        );
    }
}
