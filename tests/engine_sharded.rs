//! Integration suite for the sharded multi-group engine.
//!
//! The load-bearing guarantee: **one group is not a new engine.** The
//! pre-refactor `serve()` loop was captured as golden files (stats
//! JSON and per-instance run-log JSONL) before the sharded refactor
//! landed; these tests pin both today's `serve()` and a one-group
//! `serve_sharded()` to those bytes, across a 20-seed × 2-model sweep.
//! On top of that: cross-shard NBAC commit under chaos is seed-
//! deterministic and audit-clean, the per-group aggregate is order-
//! invariant, and a property test checks every submission is applied
//! exactly once or cleanly aborted.

mod common;

use proptest::prelude::*;

use common::golden_check;
use ssp::algos::{CtRounds, A1};
use ssp::engine::{
    serve, serve_sharded, EngineConfig, EngineStats, FaultMode, ShardedConfig, Workload,
    WorkloadConfig,
};
use ssp::runtime::{ChaosConfig, PlanModel};

/// The chaos profile the pre-refactor goldens were captured under.
const GOLDEN_CHAOS: ChaosConfig = ChaosConfig {
    loss_pm: 200,
    dup_pm: 50,
    reorder_pm: 50,
};

/// The pinned single-group configuration of the golden captures:
/// seeded faults plus chaos, 10 instances, 8 clients, batch 8.
fn pinned(model: PlanModel, seed: u64) -> (EngineConfig, Workload) {
    let mut cfg = EngineConfig::new(3, 1, model);
    cfg.instances = 10;
    cfg.seed = seed;
    cfg.batch_max = 8;
    cfg.chaos = Some(GOLDEN_CHAOS);
    let workload = Workload::new(seed, WorkloadConfig::new(8));
    (cfg, workload)
}

/// The sweep configuration: 6 instances over 6 clients, same chaos.
fn sweep(model: PlanModel, seed: u64) -> (EngineConfig, Workload) {
    let mut cfg = EngineConfig::new(3, 1, model);
    cfg.instances = 6;
    cfg.seed = seed;
    cfg.batch_max = 8;
    cfg.chaos = Some(GOLDEN_CHAOS);
    let workload = Workload::new(seed, WorkloadConfig::new(6));
    (cfg, workload)
}

fn logs_jsonl<M: std::fmt::Debug>(logs: &[ssp::model::TaggedRunLog<M>]) -> String {
    let mut out = String::new();
    for log in logs {
        out.push_str(&log.to_jsonl());
    }
    out
}

#[test]
fn refactored_serve_matches_the_pre_refactor_goldens() {
    let (cfg, mut workload) = pinned(PlanModel::Rs, 1106);
    let report = serve(&A1, &cfg, &mut workload).unwrap();
    golden_check("engine_pre_refactor_a1_rs.json", &report.stats.to_json());
    golden_check("engine_pre_refactor_a1_rs.jsonl", &logs_jsonl(&report.logs));

    let (cfg, mut workload) = pinned(PlanModel::Rws, 1307);
    let report = serve(&CtRounds, &cfg, &mut workload).unwrap();
    golden_check("engine_pre_refactor_ct_rws.json", &report.stats.to_json());
    golden_check(
        "engine_pre_refactor_ct_rws.jsonl",
        &logs_jsonl(&report.logs),
    );
}

#[test]
fn one_group_sharded_run_matches_the_same_goldens() {
    let (cfg, mut workload) = pinned(PlanModel::Rs, 1106);
    let report = serve_sharded(&A1, &ShardedConfig::new(cfg, 1), &mut workload).unwrap();
    golden_check(
        "engine_pre_refactor_a1_rs.json",
        &report.groups[0].stats.to_json(),
    );
    golden_check(
        "engine_pre_refactor_a1_rs.jsonl",
        &logs_jsonl(&report.groups[0].logs),
    );
    // The order-invariant aggregate of one group serializes to the
    // very same bytes.
    golden_check(
        "engine_pre_refactor_a1_rs.json",
        &report.stats.aggregate().to_json(),
    );
    assert_eq!(report.stats.cross.submitted, 0);
    assert!(report.cross_violation.is_none());

    let (cfg, mut workload) = pinned(PlanModel::Rws, 1307);
    let report = serve_sharded(&CtRounds, &ShardedConfig::new(cfg, 1), &mut workload).unwrap();
    golden_check(
        "engine_pre_refactor_ct_rws.json",
        &report.groups[0].stats.to_json(),
    );
    golden_check(
        "engine_pre_refactor_ct_rws.jsonl",
        &logs_jsonl(&report.groups[0].logs),
    );
}

#[test]
fn twenty_seed_sweep_matches_the_pre_refactor_engine_for_both_models() {
    let mut lines = String::new();
    for seed in 100..120 {
        let (cfg, mut workload) = sweep(PlanModel::Rs, seed);
        lines.push_str(&serve(&A1, &cfg, &mut workload).unwrap().stats.to_json());
    }
    for seed in 100..120 {
        let (cfg, mut workload) = sweep(PlanModel::Rws, seed);
        lines.push_str(
            &serve(&CtRounds, &cfg, &mut workload)
                .unwrap()
                .stats
                .to_json(),
        );
    }
    golden_check("engine_pre_refactor_sweep.json", &lines);
}

#[test]
fn one_group_sharded_sweep_is_byte_identical_to_serve() {
    let mut lines = String::new();
    for seed in 100..120 {
        let (cfg, mut workload) = sweep(PlanModel::Rs, seed);
        let sharded = serve_sharded(&A1, &ShardedConfig::new(cfg, 1), &mut workload).unwrap();
        lines.push_str(&sharded.groups[0].stats.to_json());
    }
    for seed in 100..120 {
        let (cfg, mut workload) = sweep(PlanModel::Rws, seed);
        let sharded = serve_sharded(&CtRounds, &ShardedConfig::new(cfg, 1), &mut workload).unwrap();
        lines.push_str(&sharded.groups[0].stats.to_json());
    }
    golden_check("engine_pre_refactor_sweep.json", &lines);
}

#[test]
fn one_group_sharded_logs_equal_serve_logs_under_chaos() {
    for seed in [9001u64, 9002] {
        let (cfg, mut workload) = sweep(PlanModel::Rs, seed);
        let direct = serve(&A1, &cfg, &mut workload).unwrap();
        let (cfg, mut workload) = sweep(PlanModel::Rs, seed);
        let sharded = serve_sharded(&A1, &ShardedConfig::new(cfg, 1), &mut workload).unwrap();
        assert_eq!(
            logs_jsonl(&direct.logs),
            logs_jsonl(&sharded.groups[0].logs),
            "seed {seed}: per-instance run logs must match byte for byte"
        );
        assert_eq!(direct.stats.to_json(), sharded.groups[0].stats.to_json());
    }
}

/// A cross-shard configuration: G groups, the given transaction rate,
/// seeded faults plus chaos — the adversarial regime the CI smoke runs.
fn cross(model: PlanModel, seed: u64, shards: usize, rate: f64) -> (ShardedConfig, Workload) {
    let mut engine = EngineConfig::new(3, 1, model);
    engine.instances = 12;
    engine.seed = seed;
    engine.chaos = Some(GOLDEN_CHAOS);
    let mut cfg = ShardedConfig::new(engine, shards);
    cfg.cross_shard_rate = rate;
    let mut wcfg = WorkloadConfig::new(8);
    wcfg.shards = shards;
    wcfg.cross_shard_rate = rate;
    let workload = Workload::new(seed, wcfg);
    (cfg, workload)
}

#[test]
fn cross_shard_chaos_runs_are_deterministic_and_audit_clean() {
    for (model, seed) in [(PlanModel::Rs, 501u64), (PlanModel::Rws, 502)] {
        // The report's message type depends on the algorithm, so map
        // to the shared (stats, violation-free, submitted) shape
        // inside each arm.
        let run = |(cfg, mut workload): (ShardedConfig, Workload)| match model {
            PlanModel::Rs => {
                let r = serve_sharded(&A1, &cfg, &mut workload).unwrap();
                (r.stats, r.cross_violation.is_none(), workload.submitted())
            }
            PlanModel::Rws => {
                let r = serve_sharded(&CtRounds, &cfg, &mut workload).unwrap();
                (r.stats, r.cross_violation.is_none(), workload.submitted())
            }
        };
        let (a, clean, submitted) = run(cross(model, seed, 4, 0.3));
        let (b, _, _) = run(cross(model, seed, 4, 0.3));
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "{model:?}: sharded chaos runs replay byte-identically"
        );
        assert!(a.cross.submitted > 0, "{model:?}: no transaction drawn");
        assert_eq!(
            a.cross.committed + a.cross.aborted,
            a.cross.submitted,
            "{model:?}: every transaction resolves"
        );
        assert_eq!(a.cross.nbac_violations, 0, "{model:?}");
        assert!(a.cross.committed > 0, "{model:?}: NBAC keeps committing");
        assert!(clean, "{model:?}: NBAC audit must be clean");
        let agg = a.aggregate();
        assert_eq!(agg.audit_violations, 0, "{model:?}");
        assert_eq!(agg.audit_divergences, 0, "{model:?}");
        // Exactly-once over the whole submission stream: singles
        // decided by their group, transactions committed or aborted,
        // the rest still pending in some group's queue.
        let unresolved: u64 = agg.pending_at_shutdown;
        assert!(
            agg.commands_decided + a.cross.committed + a.cross.aborted + unresolved >= submitted,
            "{model:?}: nothing vanished"
        );
    }
}

/// Groups decide side by side: over the same 40 failure-free ticks,
/// the commands resolved grow with the group count, in both models.
#[test]
fn resolved_commands_grow_with_the_group_count() {
    for model in [PlanModel::Rs, PlanModel::Rws] {
        let resolved: Vec<u64> = [1usize, 2, 4, 8]
            .into_iter()
            .map(|shards| {
                let mut engine = EngineConfig::new(3, 1, model);
                engine.instances = 40;
                engine.seed = 7;
                engine.faults = FaultMode::FailureFree;
                let cfg = ShardedConfig::new(engine, shards);
                let mut wcfg = WorkloadConfig::new(16);
                wcfg.shards = shards;
                let mut workload = Workload::new(7, wcfg);
                match model {
                    PlanModel::Rs => serve_sharded(&A1, &cfg, &mut workload).unwrap().stats,
                    PlanModel::Rws => serve_sharded(&CtRounds, &cfg, &mut workload).unwrap().stats,
                }
                .commands_resolved()
            })
            .collect();
        assert!(
            resolved.windows(2).all(|w| w[0] < w[1]),
            "{model:?}: {resolved:?}"
        );
    }
}

#[test]
fn aggregate_of_a_real_run_is_group_order_invariant() {
    let (cfg, mut workload) = cross(PlanModel::Rs, 77, 4, 0.25);
    let report = serve_sharded(&A1, &cfg, &mut workload).unwrap();
    let forward = EngineStats::aggregate(&report.stats.groups);
    let mut reversed_groups = report.stats.groups.clone();
    reversed_groups.reverse();
    let mut reversed = EngineStats::aggregate(&reversed_groups);
    // Shape metadata tracks the first group; restore it before the
    // byte comparison — everything else must agree on its own.
    reversed.seed = forward.seed;
    assert_eq!(forward.to_json(), reversed.to_json());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every submission is applied exactly once or cleanly aborted:
    /// over a drained failure-free run, decided singles + resolved
    /// transactions account for the whole stream, and the replicated
    /// stores hold exactly the operations of the decided singles plus
    /// the committed transactions (two ops each) — aborted
    /// transactions leave no trace.
    #[test]
    fn every_submission_applies_exactly_once_or_aborts_cleanly(
        seed in 0u64..500,
        shards in 2usize..=4,
        rate_pm in 100u32..=600,
        clients in 2usize..=6,
    ) {
        let rate = f64::from(rate_pm) / 1000.0;
        let mut engine = EngineConfig::new(3, 1, PlanModel::Rs);
        engine.instances = 60;
        engine.seed = seed;
        engine.faults = FaultMode::FailureFree;
        engine.run_to_drain = true;
        let mut cfg = ShardedConfig::new(engine, shards);
        cfg.cross_shard_rate = rate;
        let mut wcfg = WorkloadConfig::new(clients);
        wcfg.shards = shards;
        wcfg.cross_shard_rate = rate;
        wcfg.commands_per_client = Some(3);
        let mut workload = Workload::new(seed, wcfg);
        let report = serve_sharded(&A1, &cfg, &mut workload).unwrap();

        let agg = report.stats.aggregate();
        let cross = report.stats.cross;
        prop_assert_eq!(
            agg.commands_decided + cross.committed + cross.aborted,
            workload.submitted(),
            "every submission resolved exactly once"
        );
        prop_assert_eq!(cross.submitted, cross.committed + cross.aborted);
        prop_assert_eq!(agg.pending_at_shutdown, 0, "drained run leaves nothing behind");
        prop_assert_eq!(agg.audit_violations, 0);
        prop_assert_eq!(cross.nbac_violations, 0);
        // Store-level exactly-once: each decided single applies one
        // op, each committed transaction exactly two, aborted ones
        // zero — all prepare markers intercepted.
        let applied: u64 = report.groups.iter().map(|g| g.kv.applied()).sum();
        prop_assert_eq!(applied, agg.commands_decided + 2 * cross.committed);
    }
}
