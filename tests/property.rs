//! Property-based tests (proptest) over the core data structures and
//! the executable models: algebraic laws, spec preservation under
//! random adversaries, and determinism of replays.

use proptest::prelude::*;

use ssp::algos::{FloodSet, FloodSetWs};
use ssp::engine::decode_wire;
use ssp::fd::{classify, PerfectOracle};
use ssp::model::{
    check_uniform_consensus_strong, FailurePattern, InitialConfig, ProcessId, ProcessSet, Round,
    Time,
};
use ssp::rounds::{run_rs, run_rws, validate_pending, CrashSchedule, PendingChoice, RoundCrash};
use ssp::runtime::{Frame, SeqSet};

fn pid() -> impl Strategy<Value = ProcessId> {
    (0usize..8).prop_map(ProcessId::new)
}

fn pset() -> impl Strategy<Value = ProcessSet> {
    (0u64..256).prop_map(ProcessSet::from_bits)
}

proptest! {
    /// `SeqSet` stores exactly the set a `HashSet<u64>` would, under a
    /// forward-moving id stream with reordering (up to 11 back), gaps,
    /// duplicates and a few far-off ids.
    #[test]
    fn seq_set_agrees_with_a_hash_set(
        steps in proptest::collection::vec((0u64..12, 0u64..10), 0..400),
        far in proptest::collection::vec(0u64..100_000, 0..8),
    ) {
        let mut ids = Vec::new();
        for (i, &(back, coin)) in (0u64..).zip(&steps) {
            match coin {
                0 => {}                                 // a gap, unless a later id reaches back
                1 => ids.extend([i, i.saturating_sub(back)]), // a duplicate or reordering
                _ => ids.push(i.saturating_sub(back)),
            }
        }
        ids.extend(&far);
        let mut set = SeqSet::new();
        let mut reference = std::collections::HashSet::new();
        for &id in &ids {
            prop_assert_eq!(set.insert(id), reference.insert(id));
            prop_assert_eq!(set.len(), reference.len() as u64);
        }
        for id in (0..steps.len() as u64 + 16).chain(far) {
            prop_assert_eq!(set.contains(id), reference.contains(&id));
        }
    }

    #[test]
    fn process_set_union_is_commutative_and_idempotent(a in pset(), b in pset()) {
        prop_assert_eq!(a.union(b), b.union(a));
        prop_assert_eq!(a.union(a), a);
        prop_assert!(a.is_subset(a.union(b)));
        prop_assert_eq!(a.union(b).len() + a.intersection(b).len(), a.len() + b.len());
    }

    #[test]
    fn process_set_difference_laws(a in pset(), b in pset()) {
        let d = a.difference(b);
        prop_assert!(d.is_subset(a));
        prop_assert!(d.intersection(b).is_empty());
        prop_assert_eq!(d.union(a.intersection(b)), a);
    }

    #[test]
    fn process_set_iteration_roundtrip(a in pset()) {
        let rebuilt: ProcessSet = a.iter().collect();
        prop_assert_eq!(rebuilt, a);
        let idx: Vec<usize> = a.iter().map(ProcessId::index).collect();
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(idx, sorted);
    }

    #[test]
    fn failure_pattern_is_monotone(
        crashes in proptest::collection::vec((pid(), 0u64..50), 0..6),
        t1 in 0u64..60,
        dt in 0u64..60,
    ) {
        let mut f = FailurePattern::no_failures(8);
        for (p, at) in crashes {
            f.crash(p, Time::new(at));
        }
        let early = f.crashed_at(Time::new(t1));
        let late = f.crashed_at(Time::new(t1 + dt));
        prop_assert!(early.is_subset(late), "F(t) ⊆ F(t+dt)");
        prop_assert_eq!(f.faulty().union(f.correct()), ProcessSet::full(8));
        prop_assert!(f.faulty().intersection(f.correct()).is_empty());
    }

    #[test]
    fn perfect_oracle_histories_always_classify_as_p(
        crashes in proptest::collection::vec((0usize..4, 0u64..20), 0..4),
        delay_seed in 0u64..1_000,
    ) {
        let mut pattern = FailurePattern::no_failures(4);
        for (i, at) in crashes {
            pattern.crash(ProcessId::new(i), Time::new(at));
        }
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(delay_seed);
        let history = PerfectOracle::new(&pattern).random_delays(&mut rng, 40).build();
        let props = classify(&pattern, &history, Time::new(200));
        prop_assert!(props.is_perfect(), "{}", props);
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
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn floodset_rs_uniform_under_random_scenarios(
        inputs in proptest::collection::vec(0u64..5, 4),
        schedule in crash_schedule(4, 2, 4),
    ) {
        let config = InitialConfig::new(inputs);
        let out = run_rs(&FloodSet, &config, 2, &schedule);
        prop_assert!(check_uniform_consensus_strong(&out).is_ok(), "{}", out);
        if let Some(l) = out.latency_degree() {
            prop_assert!(l <= 3, "decides within t+1 rounds");
        }
    }

    #[test]
    fn floodset_ws_rws_uniform_under_random_pending(
        inputs in proptest::collection::vec(0u64..4, 3),
        schedule in crash_schedule(3, 2, 4),
        withhold_bits in 0u64..(1 << 12),
    ) {
        let config = InitialConfig::new(inputs);
        // Build a pending choice from the schedule's pendable triples.
        let mut pending = PendingChoice::none();
        let mut bit = 0;
        for sender in (0..3).map(ProcessId::new) {
            if let Some(crash) = schedule.crash_of(sender) {
                for r in 1..=3u32 {
                    let r = Round::new(r);
                    if crash.round > r.next() {
                        continue;
                    }
                    for receiver in (0..3).map(ProcessId::new) {
                        if receiver != sender && schedule.emits(sender, r, receiver) {
                            if withhold_bits & (1 << bit) != 0 {
                                pending.withhold(r, sender, receiver);
                            }
                            bit += 1;
                        }
                    }
                }
            }
        }
        prop_assert!(validate_pending(&schedule, &pending).is_ok());
        let out = run_rws(&FloodSetWs, &config, 2, &schedule, &pending).unwrap();
        prop_assert!(check_uniform_consensus_strong(&out).is_ok(), "{}", out);
    }

    #[test]
    fn rws_with_empty_pending_equals_rs(
        inputs in proptest::collection::vec(0u64..4, 3),
        schedule in crash_schedule(3, 1, 3),
    ) {
        let config = InitialConfig::new(inputs);
        let rs = run_rs(&FloodSetWs, &config, 1, &schedule);
        let rws = run_rws(&FloodSetWs, &config, 1, &schedule, &PendingChoice::none()).unwrap();
        prop_assert_eq!(rs, rws);
    }
}

mod sim_props {
    use super::*;
    use ssp::sim::{
        run, BoxedAutomaton, IdleAutomaton, ModelKind, RandomAdversary, ScriptedAdversary,
    };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random legal runs replay to identical traces (determinism of
        /// the executor + adversary scripting).
        #[test]
        fn random_runs_replay_identically(seed in 0u64..5_000) {
            let automata = || -> Vec<BoxedAutomaton<u32, u32>> {
                (0..3).map(|_| Box::new(IdleAutomaton::new()) as _).collect()
            };
            let mut adv = RandomAdversary::new(3, 60, seed);
            let original = run(ModelKind::Async, automata(), &mut adv, 1_000).unwrap();
            let mut replay = ScriptedAdversary::replay_log(&original.log);
            let replayed = run(ModelKind::Async, automata(), &mut replay, 1_000).unwrap();
            prop_assert_eq!(replayed.log, original.log);
        }

        /// The SS executor never emits a trace the independent SS
        /// validator rejects.
        #[test]
        fn ss_executor_agrees_with_validator(seed in 0u64..2_000, phi in 1u64..4, delta in 1u64..4) {
            let automata: Vec<BoxedAutomaton<u32, u32>> =
                (0..3).map(|_| Box::new(IdleAutomaton::new()) as _).collect();
            let mut adv = RandomAdversary::new(3, 80, seed);
            let result = run(ModelKind::ss(phi, delta), automata, &mut adv, 1_000).unwrap();
            prop_assert!(ssp::sim::validate_ss(&result.log, phi, delta).is_ok());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Bytes that cross the peer trust boundary meet a typed error or
    /// `None`, never a panic: the frame splitter (on raw bytes and
    /// behind a matching length prefix), the frame body decoder, and
    /// the node's wire payload decoder. `tag` steers the first byte
    /// into the small tag space both codecs dispatch on.
    #[test]
    fn arbitrary_bytes_meet_a_typed_error_never_a_panic(
        tag in 0u8..16,
        raw in proptest::collection::vec(0u8..=255, 0..80),
    ) {
        let mut tagged = vec![tag];
        tagged.extend_from_slice(&raw);
        for body in [&raw, &tagged] {
            let _ = Frame::split_buffered(body);
            let mut framed = u32::try_from(body.len()).unwrap().to_le_bytes().to_vec();
            framed.extend_from_slice(body);
            if let Ok(Some((_, used))) = Frame::split_buffered(&framed) {
                prop_assert_eq!(used, framed.len());
            }
            let _ = Frame::decode_body(body);
            let _ = decode_wire(body);
        }
    }
}
