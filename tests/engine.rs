//! End-to-end tests of the `ssp-engine` replicated state-machine
//! service: determinism, fault recovery, audit cleanliness, and the
//! Theorem 5.2 latency split (`A1`/`RS` decides in 1 round; `RWS`
//! pays `t + 1`).

use ssp::algos::{CtRounds, A1};
use ssp::engine::{serve, EngineConfig, FaultMode, Proposer, Workload, WorkloadConfig};
use ssp::runtime::{Backend, ChaosConfig, ConfigError, PlanModel};

fn chaos_cfg(model: PlanModel, seed: u64, instances: u64) -> EngineConfig {
    let mut cfg = EngineConfig::new(3, 1, model);
    cfg.instances = instances;
    cfg.seed = seed;
    cfg.chaos = Some(ChaosConfig {
        loss_pm: 200,
        dup_pm: 50,
        reorder_pm: 50,
    });
    cfg
}

fn workload_for(cfg: &EngineConfig, clients: usize) -> Workload {
    Workload::new(cfg.seed, WorkloadConfig::new(clients))
}

#[test]
fn seeded_chaos_run_is_bit_deterministic() {
    let run = || {
        let cfg = chaos_cfg(PlanModel::Rs, 42, 6);
        let mut workload = workload_for(&cfg, 8);
        serve(&A1, &cfg, &mut workload).expect("valid config")
    };
    let a = run();
    let b = run();
    assert_eq!(a.stats.to_json(), b.stats.to_json());
    assert_eq!(a.kv.digest(), b.kv.digest());
    assert_eq!(a.kv, b.kv, "replicated stores converge byte for byte");
    // The canonical run logs agree instance by instance.
    assert_eq!(a.logs.len(), b.logs.len());
    for (la, lb) in a.logs.iter().zip(&b.logs) {
        assert_eq!(la.instance, lb.instance);
        assert_eq!(la.to_jsonl(), lb.to_jsonl());
    }
}

#[test]
fn engine_deterministic_core_is_backend_invariant() {
    // The stats JSON serializes only the deterministic core (no wall
    // clock), so the virtual and real backends must produce the same
    // bytes — and the same store, and the same per-instance run logs.
    let run = |backend| {
        let mut cfg = chaos_cfg(PlanModel::Rs, 42, 4);
        cfg.backend = backend;
        let mut workload = workload_for(&cfg, 8);
        serve(&A1, &cfg, &mut workload).expect("valid config")
    };
    let virt = run(Backend::Virtual);
    let real = run(Backend::Real);
    assert_eq!(virt.stats.to_json(), real.stats.to_json());
    assert_eq!(virt.kv, real.kv);
    assert_eq!(virt.logs.len(), real.logs.len());
    for (lv, lr) in virt.logs.iter().zip(&real.logs) {
        assert_eq!(lv.to_jsonl(), lr.to_jsonl());
    }
}

#[test]
fn a1_rs_under_seeded_crashes_and_chaos_audits_clean() {
    let cfg = chaos_cfg(PlanModel::Rs, 7, 8);
    let mut workload = workload_for(&cfg, 8);
    let report = serve(&A1, &cfg, &mut workload).unwrap();
    assert_eq!(report.stats.audit_checked, 8);
    assert_eq!(report.stats.audit_violations, 0);
    assert_eq!(report.stats.audit_divergences, 0);
    assert!(
        report.stats.crashed_instances > 0,
        "the seeded plans should crash someone across 8 instances"
    );
    assert!(
        report.stats.decided_instances >= report.stats.instances - 1,
        "crashes delay decisions, they do not prevent them"
    );
}

#[test]
fn ct_rws_decides_at_the_horizon_and_audits_clean() {
    let cfg = chaos_cfg(PlanModel::Rws, 13, 6);
    let mut workload = workload_for(&cfg, 8);
    let report = serve(&CtRounds, &cfg, &mut workload).unwrap();
    assert_eq!(report.stats.audit_violations, 0);
    assert_eq!(report.stats.audit_divergences, 0);
    // Λ(CtRounds) = t + 1 = 2: the RWS service never beats two rounds,
    // even failure-free — the efficiency half of Theorem 5.2.
    assert_eq!(report.stats.decide_rounds_p50(), 2);
    assert!(report.stats.decide_rounds.iter().all(|&r| r >= 2));
    assert_eq!(report.stats.retired_instances, 0);
}

/// The service-level Theorem 5.2 gap as an exact count: on the same
/// failure-free workload every `A1`/`RS` instance decides in 1 round
/// and every `CtRounds`/`RWS` instance in 2.
#[test]
fn a1_rs_retires_and_beats_the_rws_round_bill() {
    let failure_free = |model| {
        let mut cfg = EngineConfig::new(3, 1, model);
        cfg.instances = 5;
        cfg.seed = 3;
        cfg.faults = FaultMode::FailureFree;
        cfg
    };
    let cfg = failure_free(PlanModel::Rs);
    let mut workload = workload_for(&cfg, 6);
    let report = serve(&A1, &cfg, &mut workload).unwrap();
    assert_eq!(
        report.stats.retired_instances, 5,
        "every instance fast-paths"
    );
    assert_eq!(report.stats.decide_rounds_p50(), 1, "Λ(A1) = 1 in RS");
    assert!(report.audits.iter().all(|a| a.retired));

    let cfg = failure_free(PlanModel::Rws);
    let mut workload = workload_for(&cfg, 6);
    let rws = serve(&CtRounds, &cfg, &mut workload).unwrap();
    for (stats, rounds) in [(&report.stats, 1), (&rws.stats, 2)] {
        assert_eq!(stats.decided_instances, 5);
        assert_eq!(stats.audit_violations + stats.audit_divergences, 0);
        assert!(stats.decide_rounds.iter().all(|&r| r == rounds), "{rounds}");
    }
}

#[test]
fn invalid_drain_is_rejected_with_a_typed_error() {
    let mut cfg = EngineConfig::new(3, 1, PlanModel::Rs);
    cfg.instances = 4;
    cfg.drain = Some(std::time::Duration::from_micros(10));
    let mut workload = workload_for(&cfg, 4);
    let err = serve(&A1, &cfg, &mut workload).unwrap_err();
    match err {
        ConfigError::DrainTooShort { drain, .. } => {
            assert_eq!(drain, std::time::Duration::from_micros(10));
        }
        other => panic!("expected DrainTooShort, got {other:?}"),
    }
}

/// Steady-state memory of the exactly-once sets: 100k closed-loop
/// submit/commit cycles with 8 clients — the decided proposal rotating
/// over the staggered prefixes, so commands are re-proposed all the
/// time — keep O(clients) ids in memory while the counts stay exact.
#[test]
fn proposer_retains_o_clients_ids_over_100k_cycles() {
    const CLIENTS: usize = 8;
    let mut workload = Workload::new(5, WorkloadConfig::new(CLIENTS));
    let mut proposer = Proposer::new();
    let mut peak = 0;
    for k in 0..100_000u64 {
        for cmd in workload.poll() {
            proposer.submit(cmd);
        }
        let proposals = proposer.proposals(3, 4, k);
        #[allow(clippy::cast_possible_truncation)]
        let winner = &proposals[(k % 3) as usize];
        for cmd in proposer.commit(winner, k, 1).expect("exactly once") {
            workload.acknowledge(cmd.id);
        }
        peak = peak.max(proposer.retained_ids());
    }
    assert!(
        proposer.decided_len() > 100_000,
        "every cycle decides at least one command"
    );
    assert!(proposer.reproposed() > 10_000, "losing prefixes re-propose");
    assert!(
        peak <= 4 * CLIENTS,
        "retained {peak} ids for {CLIENTS} clients"
    );
}
