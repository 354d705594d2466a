//! The engine proper: an unbounded sequence of uniform-consensus
//! instances, each a fresh threaded run, feeding one replicated
//! key-value state machine.
//!
//! Per instance the engine (1) polls the closed-loop workload and
//! enqueues new client commands, (2) builds staggered per-process
//! proposals from the pending queue, (3) derives the instance's fault
//! plan from `(engine seed, instance index)` and executes the
//! algorithm through
//! [`RuntimeBuilder`](ssp_runtime::RuntimeBuilder) — a clean network
//! spawn and shutdown per instance, on the configured clock backend —
//! with the early-retire fast path enabled, (4) commits the decided
//! batch exactly once and acknowledges its clients, and (5) ships the
//! full [`ThreadedOutcome`](ssp_runtime::ThreadedOutcome) to a
//! background audit thread that overlaps certification
//! ([`ssp_lab::audit_instance`]) with the *next* instance's execution
//! — the pipelining that keeps auditing off the decide path.
//!
//! Since the sharded refactor this loop lives in
//! [`shard`](crate::shard) as the **per-group pipeline** of
//! [`serve_sharded`](crate::serve_sharded): [`serve`] *is* the
//! one-group sharded engine, byte-identical in deterministic stats and
//! run logs to what the standalone loop produced. This module keeps
//! the per-group vocabulary — [`EngineConfig`], [`EngineCrash`],
//! [`FaultMode`], [`EngineReport`] — plus the seed/fault-plan
//! derivations both layers share.
//!
//! Crashed processes are crashed *for that instance only*: the next
//! instance restarts all `n` workers, which is how a replicated
//! service with process recovery maps onto the paper's per-run fault
//! bound `t`. Batches orphaned by a mid-instance crash simply stay
//! pending and are re-proposed.

use std::time::Duration;

use ssp_lab::InstanceAudit;
use ssp_model::TaggedRunLog;
use ssp_rounds::{RoundAlgorithm, RoundProcess};
use ssp_runtime::{
    Backend, ChaosConfig, ConfigError, DegradeMode, FaultPlan, PlanModel, RuntimeConfig,
    SyncPolicy, ThreadCrash,
};

use crate::command::{Batch, KvStore};
use crate::shard::{serve_sharded, ShardedConfig};
use crate::stats::EngineStats;
use crate::workload::Workload;

/// Where each instance's fault plan comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// No crashes, no slow links: the failure-free baseline the
    /// throughput benchmark measures.
    FailureFree,
    /// Seed-derived [`FaultPlan`] per instance (crashes, slow links,
    /// oracle timing), like `ssp runtime-fuzz`.
    Seeded,
}

/// One scripted crash, pinned to a specific instance — the proptest
/// plane's way of asking "leader dies mid-broadcast in instance `i`".
#[derive(Debug, Clone, Copy)]
pub struct EngineCrash {
    /// The instance the crash happens in.
    pub instance: u64,
    /// The crashing process.
    pub process: usize,
    /// When within the instance it crashes.
    pub crash: ThreadCrash,
}

/// Engine configuration. Public fields; start from
/// [`EngineConfig::new`] and override what the scenario needs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of processes.
    pub n: usize,
    /// Per-instance fault bound.
    pub t: usize,
    /// Round model the instances run under.
    pub model: PlanModel,
    /// Maximum number of instances to execute.
    pub instances: u64,
    /// Engine seed; instance seeds and the workload stream derive
    /// from it.
    pub seed: u64,
    /// Fault-plan source.
    pub faults: FaultMode,
    /// Extra scripted crashes on top of `faults`.
    pub crashes: Vec<EngineCrash>,
    /// Chaos faults (loss/duplication/reordering) on every instance.
    pub chaos: Option<ChaosConfig>,
    /// Watchdog degradation mode (effective under `RS`).
    pub degrade: DegradeMode,
    /// Largest per-process proposal prefix.
    pub batch_max: usize,
    /// `RS` drain override; passed to the runtime's typed validation,
    /// so an inadequate drain is a [`ConfigError`], not a forfeited
    /// round-synchrony guarantee.
    pub drain: Option<Duration>,
    /// Clock backend the instances run on (default
    /// [`Backend::Virtual`]: discrete-event time, thousands of
    /// instances per second, byte-identical deterministic core).
    pub backend: Backend,
    /// Stop as soon as a budgeted workload has drained and every
    /// submitted command is decided (instead of running the full
    /// instance budget).
    pub run_to_drain: bool,
}

impl EngineConfig {
    /// Defaults: seeded faults, no chaos, batch cap 8, virtual clock
    /// backend. Not configurable: every instance runs with the
    /// early-retire fast path on (effective for algorithms that declare
    /// [`RoundAlgorithm::retires_after_decision`]) and is audited
    /// against uniform validity.
    #[must_use]
    pub fn new(n: usize, t: usize, model: PlanModel) -> Self {
        EngineConfig {
            n,
            t,
            model,
            instances: 50,
            seed: 1,
            faults: FaultMode::Seeded,
            crashes: Vec::new(),
            chaos: None,
            degrade: DegradeMode::Off,
            batch_max: 8,
            drain: None,
            backend: Backend::Virtual,
            run_to_drain: false,
        }
    }
}

/// Everything one engine run produced.
#[derive(Debug)]
pub struct EngineReport<M> {
    /// Run statistics (deterministic core + wall clock).
    pub stats: EngineStats,
    /// Per-instance audit results, instance order.
    pub audits: Vec<InstanceAudit>,
    /// One tagged canonical run log per instance, instance order.
    pub logs: Vec<TaggedRunLog<M>>,
    /// The final replicated store.
    pub kv: KvStore,
}

/// Splitmix64 over `(seed, instance)`: well-separated per-instance
/// fault-plan seeds from one engine seed.
#[must_use]
pub fn instance_seed(seed: u64, instance: u64) -> u64 {
    let mut z = seed ^ instance.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds instance `i`'s runtime configuration from the engine config.
pub(crate) fn instance_runtime(cfg: &EngineConfig, instance: u64, horizon: u32) -> RuntimeConfig {
    let mut plan = FaultPlan::from_seed(
        instance_seed(cfg.seed, instance),
        cfg.n,
        cfg.t,
        horizon,
        cfg.model,
    );
    if cfg.faults == FaultMode::FailureFree {
        plan.crashes = vec![None; cfg.n];
        plan.slow.clear();
    }
    for scripted in &cfg.crashes {
        if scripted.instance == instance && scripted.process < cfg.n {
            plan.crashes[scripted.process] = Some(scripted.crash);
        }
    }
    if let Some(chaos) = cfg.chaos {
        plan = plan.with_chaos(chaos);
    }
    plan = plan.with_degrade(cfg.degrade);
    let mut runtime = plan.runtime_config().with_early_close(true);
    if let Some(drain) = cfg.drain {
        if matches!(runtime.policy, SyncPolicy::Rs { .. }) {
            runtime.policy = SyncPolicy::Rs { drain };
        }
    }
    runtime
}

/// Runs the replicated state-machine service: repeated consensus over
/// the threaded runtime, with background auditing.
///
/// This is the one-group special case of
/// [`serve_sharded`](crate::serve_sharded): the identity
/// [`GroupRouter`](crate::GroupRouter) sends every command to group 0,
/// whose seed stream is the engine seed verbatim — so the instance
/// sequence, deterministic stats, and tagged run logs are exactly what
/// the standalone loop produced before the sharded refactor.
///
/// # Errors
///
/// Returns the typed [`ConfigError`] if any instance's runtime
/// configuration fails validation (e.g. an `RS` drain below the
/// network's worst transport delay). Nothing hangs: validation happens
/// before any thread spawns.
///
/// # Panics
///
/// Panics if a decided batch violates exactly-once commitment (a
/// safety breach the audit would also flag), or if a worker or the
/// audit thread panics.
#[allow(clippy::missing_panics_doc)]
pub fn serve<A>(
    algo: &A,
    cfg: &EngineConfig,
    workload: &mut Workload,
) -> Result<EngineReport<<A::Process as RoundProcess>::Msg>, ConfigError>
where
    A: RoundAlgorithm<Batch> + Sync,
    A::Process: Send + 'static,
    <A::Process as RoundProcess>::Msg: Clone + Send + 'static,
{
    let sharded = ShardedConfig::new(cfg.clone(), 1);
    let report = serve_sharded(algo, &sharded, workload)?;
    Ok(report
        .groups
        .into_iter()
        .next()
        .expect("a one-group sharded run reports exactly one group"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadConfig;
    use ssp_algos::{CtRounds, A1};
    use ssp_model::Round;

    fn quick(model: PlanModel, instances: u64) -> (EngineConfig, Workload) {
        let mut cfg = EngineConfig::new(3, 1, model);
        cfg.instances = instances;
        cfg.seed = 11;
        cfg.faults = FaultMode::FailureFree;
        let workload = Workload::new(cfg.seed, WorkloadConfig::new(6));
        (cfg, workload)
    }

    #[test]
    fn failure_free_a1_rs_decides_every_instance_in_one_round() {
        let (cfg, mut workload) = quick(PlanModel::Rs, 4);
        let report = serve(&A1, &cfg, &mut workload).unwrap();
        assert_eq!(report.stats.decided_instances, 4);
        assert_eq!(
            report.stats.retired_instances, 4,
            "A1 retires after round 1"
        );
        assert_eq!(
            report.stats.decide_rounds,
            vec![1; 4],
            "Λ(A1) = 1 per instance"
        );
        assert!(report.audits.iter().all(InstanceAudit::is_clean));
        assert_eq!(report.stats.audit_checked, 4);
        assert_eq!(report.logs.len(), 4);
        assert_eq!(report.logs[3].instance, 3);
    }

    #[test]
    fn failure_free_ct_rws_pays_t_plus_1_rounds() {
        let (cfg, mut workload) = quick(PlanModel::Rws, 4);
        let report = serve(&CtRounds, &cfg, &mut workload).unwrap();
        assert_eq!(report.stats.decided_instances, 4);
        assert_eq!(
            report.stats.retired_instances, 0,
            "CtRounds decides at the horizon"
        );
        assert_eq!(report.stats.decide_rounds, vec![2; 4], "Λ = t + 1");
        assert!(report.audits.iter().all(InstanceAudit::is_clean));
    }

    #[test]
    fn scripted_leader_crash_reproposes_the_orphaned_batch() {
        let (mut cfg, mut workload) = quick(PlanModel::Rs, 6);
        // p0 (A1's round-1 proposer) dies mid-broadcast in instance 1.
        cfg.crashes.push(EngineCrash {
            instance: 1,
            process: 0,
            crash: ThreadCrash {
                round: 1,
                after_sends: 1,
                sends_to: None,
            },
        });
        let report = serve(&A1, &cfg, &mut workload).unwrap();
        assert_eq!(report.stats.crashed_instances, 1);
        assert_eq!(
            report.stats.decided_instances, 6,
            "the crash delays, never loses"
        );
        assert!(report.audits.iter().all(InstanceAudit::is_clean));
        // The crashed instance decided in round 2 (relay or fallback).
        assert!(report.stats.decide_rounds.contains(&2));
    }

    #[test]
    fn bad_drain_is_a_typed_config_error_not_a_hang() {
        let (mut cfg, mut workload) = quick(PlanModel::Rs, 2);
        cfg.drain = Some(Duration::from_millis(1));
        let err = serve(&A1, &cfg, &mut workload).unwrap_err();
        assert!(
            matches!(err, ConfigError::DrainTooShort { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn instance_seeds_are_well_separated() {
        let a: Vec<u64> = (0..8).map(|i| instance_seed(42, i)).collect();
        let b: Vec<u64> = (0..8).map(|i| instance_seed(43, i)).collect();
        let mut all: Vec<u64> = a.iter().chain(&b).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 16, "no collisions across seeds or instances");
    }

    #[test]
    fn run_to_drain_stops_early_with_everything_decided() {
        let mut cfg = EngineConfig::new(3, 1, PlanModel::Rs);
        cfg.instances = 40;
        cfg.seed = 5;
        cfg.faults = FaultMode::FailureFree;
        cfg.run_to_drain = true;
        cfg.batch_max = 4;
        let mut wcfg = WorkloadConfig::new(3);
        wcfg.commands_per_client = Some(2);
        let mut workload = Workload::new(cfg.seed, wcfg);
        let report = serve(&A1, &cfg, &mut workload).unwrap();
        assert!(report.stats.instances < 40, "drained before the budget");
        assert_eq!(report.stats.commands_submitted, 6);
        assert_eq!(report.stats.commands_decided, 6, "all decided exactly once");
        assert_eq!(report.stats.pending_at_shutdown, 0);
        assert_eq!(report.kv.applied(), 6);
    }

    #[test]
    fn retired_rounds_are_recorded_in_the_trace() {
        let (cfg, mut workload) = quick(PlanModel::Rs, 1);
        let report = serve(&A1, &cfg, &mut workload).unwrap();
        assert!(report.audits[0].retired);
        assert_eq!(report.audits[0].instance, 0);
        // Round 2 is where every decided process retires.
        let _ = Round::new(2);
    }
}
