//! Property: every client command submitted before shutdown is decided
//! **exactly once**, under both round models, regardless of where a
//! scripted crash lands.
//!
//! The exactly-once half is structural — `Proposer::commit` returns a
//! typed error (which `serve` escalates to a panic) on any duplicate or
//! unknown decision — so the property reduces to liveness: a budgeted
//! closed-loop workload must fully drain, with nothing left pending,
//! even when the scripted crash orphans a proposer's batch mid-instance.

use proptest::prelude::*;

use ssp::algos::{CtRounds, A1};
use ssp::engine::{
    serve, Batch, EngineConfig, EngineCrash, EngineReport, FaultMode, Workload, WorkloadConfig,
};
use ssp::rounds::{RoundAlgorithm, RoundModel, RoundProcess};
use ssp::runtime::ThreadCrash;

/// Clients × commands-per-client of the budgeted workload.
const CLIENTS: usize = 3;
const BUDGET: u32 = 2;

fn run_engine<A>(
    algo: &A,
    model: RoundModel,
    seed: u64,
    crash: EngineCrash,
) -> EngineReport<<A::Process as RoundProcess>::Msg>
where
    A: RoundAlgorithm<Batch> + Sync,
    A::Process: Send + 'static,
    <A::Process as RoundProcess>::Msg: Clone + Send + 'static,
{
    let mut cfg = EngineConfig::new(3, 1, model);
    cfg.instances = 20; // ample: 6 commands at ≥1 decided per instance
    cfg.seed = seed;
    cfg.faults = FaultMode::FailureFree;
    cfg.run_to_drain = true;
    cfg.batch_max = 4;
    cfg.crashes.push(crash);
    let mut wcfg = WorkloadConfig::new(CLIENTS);
    wcfg.commands_per_client = Some(BUDGET);
    let mut workload = Workload::new(seed, wcfg);
    serve(algo, &cfg, &mut workload).expect("valid config")
}

fn assert_drained<M>(report: &EngineReport<M>) {
    let expected = (CLIENTS as u64) * u64::from(BUDGET);
    assert_eq!(report.stats.commands_submitted, expected);
    assert_eq!(
        report.stats.commands_decided, expected,
        "every submitted command decided exactly once"
    );
    assert_eq!(report.stats.pending_at_shutdown, 0);
    assert_eq!(report.kv.applied(), expected);
    assert!(
        report.stats.instances < 20,
        "the workload drains well inside the instance budget"
    );
    assert_eq!(report.stats.audit_violations, 0);
    assert_eq!(report.stats.audit_divergences, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn submitted_commands_decide_exactly_once_despite_crashes(
        seed in 0u64..1_000,
        instance in 0u64..4,
        round in 1u32..=2,
        after_sends in 0usize..=3,
    ) {
        let crash = EngineCrash {
            instance,
            process: 0,
            crash: ThreadCrash { round, after_sends, sends_to: None },
        };
        // RS service on A1 (the paper's 1-round algorithm)…
        let rs = run_engine(&A1, RoundModel::Rs, seed, crash);
        assert_drained(&rs);
        // …and the RWS service on the rotating-coordinator baseline.
        let rws = run_engine(&CtRounds, RoundModel::Rws, seed, crash);
        assert_drained(&rws);
        // Same workload either way: the models disagree on rounds paid,
        // never on what was decided.
        prop_assert_eq!(rs.stats.commands_decided, rws.stats.commands_decided);
    }
}
