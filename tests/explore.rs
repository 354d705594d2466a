//! E22 — exhaustive schedule exploration (`ssp explore`):
//!
//! * the explorer rediscovers the §5.3 uniform-agreement violation on
//!   `A1` from first principles — no seed hint — and its shrunk
//!   witness replays to the exact golden log the seed-519 fuzz run
//!   pinned;
//! * DPOR-style pruning is *complete*: on small instances the pruned
//!   walk produces exactly the distinct run logs of the unpruned
//!   brute-force schedule space, one execution per class;
//! * the symmetry quotient preserves weighted class counts while
//!   executing fewer representatives;
//! * out-of-range instances are typed errors (the real-clock refusal
//!   lives in the CLI, `src/main.rs`'s `explore_rejects_bad_input`).

use std::collections::BTreeSet;

use proptest::prelude::*;

use ssp::algos::{FloodSet, FloodSetWs, A1};
use ssp::explore::{ExploreError, Explorer};
use ssp::lab::{crash_schedules, pending_choices};
use ssp::model::{InitialConfig, Round};
use ssp::rounds::{PendingChoice, RoundAlgorithm, RoundModel, RoundProcess};
use ssp::runtime::{FaultPlan, RuntimeBuilder};

mod common;
use common::{golden_check, p, section_5_3_config};

/// Runs every `(crash schedule, pending choice)` of the instance on
/// the threaded runtime — no pruning, no equivalence reasoning — and
/// collects the distinct canonical logs, plus the total run count.
fn brute_force_logs<A>(
    algo: &A,
    config: &InitialConfig<u64>,
    t: usize,
    model: RoundModel,
) -> (BTreeSet<String>, u64)
where
    A: RoundAlgorithm<u64>,
    A::Process: Send + 'static,
    <A::Process as RoundProcess>::Msg: Send + 'static,
{
    let n = config.n();
    let horizon = algo.round_horizon(n, t);
    let mut logs = BTreeSet::new();
    let mut runs = 0;
    for schedule in crash_schedules(n, t, horizon + 1) {
        let pendings = match model {
            RoundModel::Rs => vec![PendingChoice::none()],
            RoundModel::Rws => pending_choices(&schedule, horizon),
        };
        for pending in pendings {
            let plan = FaultPlan::from_adversary(&schedule, &pending, t, horizon, model);
            let result = RuntimeBuilder::new(algo, config)
                .t(t)
                .model(model)
                .plan(plan)
                .run()
                .unwrap();
            logs.insert(result.trace.run_log().to_jsonl());
            runs += 1;
        }
    }
    (logs, runs)
}

#[test]
fn explorer_rediscovers_the_section_5_3_violation_without_the_seed() {
    let config = section_5_3_config();
    let explore = || {
        Explorer::new(&A1, &config)
            .t(1)
            .model(RoundModel::Rws)
            .run()
            .unwrap()
    };
    let report = explore();
    assert!(report.violations > 0, "{report}");
    assert!(report.divergences.is_empty(), "{:?}", report.divergences);
    assert_eq!(report.duplicates, 0, "{report}");

    let witness = report.witness.as_ref().expect("a violating class exists");
    // The shrunk witness is the §5.3 adversary: p1 crashes during
    // round 2 and both of its round-1 broadcasts stay pending. (Its
    // round-2 wires are null under A1 — only the relay speaks in
    // round 2 — so the delivered and omitted variants are one class.)
    assert_eq!(witness.record.crashes.len(), 1, "{}", witness.record);
    let crash = &witness.record.crashes[0];
    assert_eq!(crash.process, p(0));
    assert_eq!(crash.round, Round::new(2));
    assert_eq!(
        witness.record.withheld,
        vec![(Round::FIRST, p(0), p(1)), (Round::FIRST, p(0), p(2))],
        "{}",
        witness.record
    );
    assert!(witness.violation.contains("agree"), "{}", witness.violation);
    // The §5.3 shape was already minimal: shrinking removed nothing.
    assert_eq!(witness.record, witness.original);

    // The witness replays to the exact bytes the seed-519 fuzz run
    // pinned: the explorer found the same execution the 4096-seed
    // sweep stumbled on, without the seed.
    golden_check("seed519_a1_rws.jsonl", &witness.log_jsonl);

    // Deterministic: a second exploration reproduces counts, witness,
    // and logs byte for byte.
    let again = explore();
    assert_eq!(report.classes, again.classes);
    assert_eq!(report.violations, again.violations);
    assert_eq!(report.logs, again.logs);
    let w2 = again.witness.expect("same witness");
    assert_eq!(witness.record.to_json(), w2.record.to_json());
    assert_eq!(witness.violation, w2.violation);
    assert_eq!(witness.log_jsonl, w2.log_jsonl);
}

#[test]
fn exploration_counts_match_brute_force_on_the_reference_instance() {
    // The acceptance instance: FloodSet over three distinct inputs,
    // t = 1. The explorer's class count must equal the number of
    // distinct logs of the full brute-force space, in both models.
    let config = InitialConfig::new(vec![0u64, 1, 2]);
    for model in [RoundModel::Rs, RoundModel::Rws] {
        let report = Explorer::new(&FloodSet, &config)
            .t(1)
            .model(model)
            .run()
            .unwrap();
        let (brute, runs) = brute_force_logs(&FloodSet, &config, 1, model);
        assert_eq!(
            report.classes,
            brute.len() as u64,
            "{model}: {report}; brute force took {runs} runs"
        );
        assert_eq!(report.logs, brute, "{model}: same class representatives");
        assert_eq!(
            report.executed, report.classes,
            "{model}: one run per class"
        );
        assert_eq!(report.duplicates, 0, "{model}: {report}");
        assert!(report.divergences.is_empty(), "{:?}", report.divergences);
        assert!(
            report.classes < runs,
            "{model}: pruning must beat brute force ({report} vs {runs} runs)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Completeness on n=3, t=1 across input assignments: the pruned
    /// exploration visits exactly one representative per equivalence
    /// class — the distinct-log sets of the pruned and unpruned walks
    /// coincide, with zero duplicate executions.
    #[test]
    fn dpor_exploration_is_complete(inputs in proptest::collection::vec(0u64..3, 3)) {
        let config = InitialConfig::new(inputs);
        for (model, algo) in [(RoundModel::Rs, &FloodSet as &FloodSet), (RoundModel::Rws, &FloodSet)] {
            let report = Explorer::new(algo, &config).t(1).model(model).run().unwrap();
            let (brute, _) = brute_force_logs(algo, &config, 1, model);
            prop_assert_eq!(&report.logs, &brute);
            prop_assert_eq!(report.classes, brute.len() as u64);
            prop_assert_eq!(report.duplicates, 0);
        }
    }
}

#[test]
fn symmetry_quotient_preserves_weighted_counts() {
    // Two equal inputs: the stabilizer swaps p1 and p2, halving (most
    // of) the orbit representatives while the weighted class count —
    // and the violation count — must not move.
    let config = InitialConfig::new(vec![5u64, 5, 7]);
    let full = Explorer::new(&FloodSetWs, &config)
        .t(1)
        .model(RoundModel::Rws)
        .run()
        .unwrap();
    let quotient = Explorer::new(&FloodSetWs, &config)
        .t(1)
        .model(RoundModel::Rws)
        .run_quotient()
        .unwrap();
    assert_eq!(quotient.classes, full.classes, "{quotient} vs {full}");
    assert_eq!(quotient.violations, full.violations);
    assert!(
        quotient.executed < full.executed,
        "the quotient must actually skip orbits: {quotient} vs {full}"
    );
    assert_eq!(quotient.duplicates, 0);
    assert!(
        quotient.logs.is_subset(&full.logs),
        "representatives are a subset of the full class set"
    );
    // Distinct inputs leave only the identity: the quotient degrades
    // to the full exploration.
    let distinct = InitialConfig::new(vec![5u64, 6, 7]);
    let a = Explorer::new(&FloodSetWs, &distinct)
        .t(1)
        .model(RoundModel::Rws)
        .run()
        .unwrap();
    let b = Explorer::new(&FloodSetWs, &distinct)
        .t(1)
        .model(RoundModel::Rws)
        .run_quotient()
        .unwrap();
    assert_eq!(a.executed, b.executed);
    assert_eq!(a.logs, b.logs);
}

#[test]
fn out_of_range_instances_are_typed_errors() {
    let big = InitialConfig::new(vec![0u64; 6]);
    let err = Explorer::new(&FloodSet, &big).t(1).run().unwrap_err();
    assert!(matches!(err, ExploreError::Bounds { n: 6, t: 1 }), "{err}");

    let config = InitialConfig::new(vec![0u64, 1, 2]);
    let err = Explorer::new(&FloodSet, &config).t(3).run().unwrap_err();
    assert!(matches!(err, ExploreError::Bounds { n: 3, t: 3 }), "{err}");
    assert!(err.to_string().contains("t < n"), "{err}");
}

#[test]
fn class_limit_truncates_deterministically() {
    let config = InitialConfig::new(vec![0u64, 1, 2]);
    let full = Explorer::new(&FloodSet, &config)
        .t(1)
        .model(RoundModel::Rs)
        .run()
        .unwrap();
    let capped = Explorer::new(&FloodSet, &config)
        .t(1)
        .model(RoundModel::Rs)
        .limit(Some(5))
        .run()
        .unwrap();
    assert!(capped.truncated);
    assert_eq!(capped.executed, 5);
    assert!(!full.truncated);
    assert!(
        capped.logs.iter().all(|l| full.logs.contains(l)),
        "a truncated walk is a prefix of the full one"
    );
}
