//! Runtime ↔ model conformance: certify that wall-clock executions of
//! `ssp-runtime` are runs the round models admit, and that their
//! safety verdicts agree with the [`Verifier`]'s enumeration.
//!
//! The bridge works on the [`RunTrace`] every threaded run records:
//!
//! 1. **admissibility** — [`RunTrace::validate`] (complete logs,
//!    message integrity, detector accuracy, Lemma 4.1 for pending
//!    messages) plus the step-level validators of `ssp-sim`
//!    ([`validate_basic`], [`validate_perfect_fd`]) on the step-level
//!    log [`RunTrace::step_log`] exports;
//! 2. **replay** — the derived [`CrashSchedule`]/[`PendingChoice`]
//!    adversary is re-executed through `ssp_rounds::run_rws_observed`,
//!    and the two canonical run logs, projected onto their shared
//!    delivery core, must agree event-for-event
//!    ([`RunLog::first_divergence`](ssp_model::RunLog::first_divergence)),
//!    as must the final outcomes;
//! 3. **verdict** — if a threaded run violates the consensus spec, the
//!    model checker sweeping the same `(n, t, domain, model)` space
//!    must report a violation too (the recorded run *is* in its
//!    space).
//!
//! [`fuzz_runtime`] sweeps seed-derived [`FaultPlan`]s through all
//! three, and [`shrink_plan`] greedily minimizes any failing plan —
//! the engine behind the `ssp runtime-fuzz` subcommand.
//!
//! [`CrashSchedule`]: ssp_rounds::CrashSchedule
//! [`PendingChoice`]: ssp_rounds::PendingChoice
//! [`RunTrace`]: ssp_runtime::RunTrace
//! [`RunTrace::validate`]: ssp_runtime::RunTrace::validate
//! [`RunTrace::step_log`]: ssp_runtime::RunTrace::step_log

use core::fmt;
use std::ops::Range;

use ssp_model::{InitialConfig, ProcessId, Round, RunEvent, RunLogObserver, Value};
use ssp_rounds::{run_rws_observed, RoundAlgorithm, RoundModel, RoundProcess};
use ssp_runtime::{FaultPlan, RunTraceError, RuntimeBuilder, ThreadedOutcome};
use ssp_sim::{validate_basic, validate_perfect_fd, TraceViolation};

use crate::checker::ValidityMode;
use crate::verifier::Verifier;

/// A disagreement between a threaded run and the round models — the
/// conformance layer's finding of interest. Real divergences mean a
/// bug in the runtime, the models, or the bridge itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// The recorded trace is not an admissible run of its model.
    Inadmissible(RunTraceError),
    /// The exported step trace fails a §2 validator.
    StepModel(TraceViolation),
    /// Replaying the derived adversary delivered different messages.
    DeliveryMismatch {
        /// The first round whose delivery matrices differ.
        round: Round,
    },
    /// Replay and threaded run disagree on a process's final state.
    OutcomeMismatch {
        /// The process whose decision or crash status differs.
        process: ProcessId,
        /// Human-readable `threaded vs replay` detail.
        detail: String,
    },
    /// A threaded run violated the spec but the model checker's sweep
    /// of the same space found no violation.
    CheckerDisagrees {
        /// The violation the threaded run exhibited.
        violation: String,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Inadmissible(e) => write!(f, "inadmissible trace: {e}"),
            Divergence::StepModel(v) => write!(f, "step-trace violation: {v}"),
            Divergence::DeliveryMismatch { round } => {
                write!(f, "replay delivered different messages in {round}")
            }
            Divergence::OutcomeMismatch { process, detail } => {
                write!(f, "replay disagrees on {process}: {detail}")
            }
            Divergence::CheckerDisagrees { violation } => write!(
                f,
                "run violates the spec ({violation}) but the checker's sweep is clean"
            ),
        }
    }
}

impl std::error::Error for Divergence {}

/// What model, if any, a threaded run is certified against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunVerdict {
    /// Admissible under round synchrony, bounds intact.
    Rs,
    /// Admissible under weak round synchrony.
    Rws,
    /// Started as `RS`, but the watchdog detected a Δ violation and
    /// downgraded the run — certified as an `RWS` run instead (which
    /// is sound: `RWS` never relied on Δ).
    DegradedRws {
        /// The round in which the downgrade took effect.
        at: Round,
    },
    /// The watchdog detected a Δ violation and degradation was off:
    /// the run kept claiming `RS` on a network that broke the claim.
    /// Never certified — whatever it decided is untrustworthy (§3).
    SynchronyViolation,
    /// The watchdog aborted the run; nothing to certify.
    Aborted,
}

impl fmt::Display for RunVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunVerdict::Rs => write!(f, "RS"),
            RunVerdict::Rws => write!(f, "RWS"),
            RunVerdict::DegradedRws { at } => write!(f, "RWS (degraded at {at})"),
            RunVerdict::SynchronyViolation => write!(f, "SynchronyViolation"),
            RunVerdict::Aborted => write!(f, "aborted"),
        }
    }
}

impl RunVerdict {
    /// Whether the run is certified against some round model (`RS`,
    /// `RWS`, or degraded `RWS`).
    #[must_use]
    pub fn is_certified(&self) -> bool {
        !matches!(self, RunVerdict::SynchronyViolation | RunVerdict::Aborted)
    }
}

/// What a conformant threaded run looked like.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The spec violation the run exhibited, if any (violations are
    /// *expected* for unsafe algorithm/model pairs — only divergences
    /// are bugs).
    pub violation: Option<String>,
    /// Number of pending messages the run realized.
    pub pending: usize,
    /// Which model the run is certified against, if any.
    pub verdict: RunVerdict,
}

/// Certifies one threaded run against the round models: trace
/// admissibility, step-trace validity, and tick-for-tick replay
/// agreement (deliveries and outcomes).
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
///
/// # Panics
///
/// Panics if the recorded crash schedule exceeds the fault bound `t`
/// (the replay executor rejects such schedules).
pub fn check_threaded_run<V, A>(
    algo: &A,
    config: &InitialConfig<V>,
    t: usize,
    result: &ThreadedOutcome<V, <A::Process as RoundProcess>::Msg>,
    mode: ValidityMode,
) -> Result<RunReport, Divergence>
where
    V: Value,
    A: RoundAlgorithm<V>,
{
    let trace = &result.trace;
    if trace.aborted {
        // The watchdog stopped the run mid-flight: the logs are
        // deliberately cut short and certify nothing. Not a divergence
        // — aborting on a violated bound is the configured behavior.
        return Ok(RunReport {
            violation: None,
            pending: 0,
            verdict: RunVerdict::Aborted,
        });
    }
    if result.synchrony.flagged() {
        // Δ was violated and degradation was off: the run kept
        // claiming RS on a network that broke the claim. Whatever it
        // produced must be flagged, never certified — this is §5.3
        // smuggled into "RS", and its trace is typically inadmissible
        // (pending messages under round synchrony).
        return Ok(RunReport {
            violation: mode.check(&result.outcome).err().map(|e| e.to_string()),
            pending: trace.pending().len(),
            verdict: RunVerdict::SynchronyViolation,
        });
    }
    trace.validate().map_err(Divergence::Inadmissible)?;
    let steps = trace.step_log().map_err(Divergence::Inadmissible)?;
    validate_basic(&steps).map_err(Divergence::StepModel)?;
    validate_perfect_fd(&steps).map_err(Divergence::StepModel)?;

    let schedule = trace.schedule();
    let pending = trace.pending();
    let mut replay_obs = RunLogObserver::new(config.n());
    let replay_outcome = run_rws_observed(algo, config, t, &schedule, &pending, &mut replay_obs)
        .map_err(|e| Divergence::Inadmissible(RunTraceError::Pending(e)))?;

    // Log-diff conformance: both logs projected onto their shared
    // delivery core (deliveries, withholds, crashes, lockstep closes)
    // must agree event-for-event. Layer-specific events — the replay's
    // decisions, the runtime's watchdog markers — are outside the core.
    let recorded = trace.run_log().project(RunEvent::is_delivery);
    let replayed = replay_obs.into_log().project(RunEvent::is_delivery);
    if let Some(d) = recorded.first_divergence(&replayed) {
        let round = d
            .left
            .and_then(RunEvent::round)
            .or_else(|| d.right.and_then(RunEvent::round))
            .unwrap_or(Round::FIRST);
        return Err(Divergence::DeliveryMismatch { round });
    }

    let clamp = |r: Option<Round>| r.map(|r| r.min(Round::new(trace.horizon + 1)));
    for (p, threaded) in result.outcome.iter() {
        let replayed = replay_outcome.outcome(p);
        if threaded.decision != replayed.decision
            || clamp(threaded.crashed_in) != replayed.crashed_in
        {
            return Err(Divergence::OutcomeMismatch {
                process: p,
                detail: format!(
                    "threaded decided {:?} (crashed {:?}) vs replay {:?} (crashed {:?})",
                    threaded.decision, threaded.crashed_in, replayed.decision, replayed.crashed_in
                ),
            });
        }
    }

    Ok(RunReport {
        violation: mode.check(&result.outcome).err().map(|e| e.to_string()),
        pending: pending.len(),
        verdict: match trace.degraded_at {
            Some(at) => RunVerdict::DegradedRws { at },
            None if trace.model == RoundModel::Rs => RunVerdict::Rs,
            None => RunVerdict::Rws,
        },
    })
}

/// One repeated-consensus instance, audited after the fact by the
/// engine's background pipeline.
#[derive(Debug, Clone)]
pub struct InstanceAudit {
    /// Zero-based instance index within the engine run.
    pub instance: u64,
    /// Which model the instance is certified against, if any.
    pub verdict: RunVerdict,
    /// The consensus-spec violation the instance exhibited, if any.
    pub violation: Option<String>,
    /// A disagreement with the round models, if any (always a bug).
    pub divergence: Option<String>,
    /// Whether any process took the early-retire fast path. Retired
    /// traces deliberately stop logging received rounds, so they get
    /// the spec-level audit instead of full trace replay.
    pub retired: bool,
}

impl InstanceAudit {
    /// No spec violation and no model divergence.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violation.is_none() && self.divergence.is_none()
    }
}

/// Audits one consensus instance of a repeated-consensus engine run.
///
/// Full-horizon instances go through [`check_threaded_run`] — trace
/// admissibility, step-model validation, and tick-for-tick replay.
/// Instances where some process *retired* (the early-close fast path:
/// burst the remaining sends, skip the remaining receives) cannot be
/// replayed event-for-event — their logs legitimately stop short — so
/// they are audited at the spec level instead: the trace must still
/// validate ([`RunTrace::validate`] knows about retired rounds) and
/// the outcome must satisfy the consensus spec.
///
/// The instance need not have run in-process: `ssp serve-cluster`
/// merges per-node socket reports into the same
/// `RunTrace`/`ThreadedOutcome` shape (a killed node's crash round is
/// reconstructed from the survivors' received rows), so this function
/// also certifies **real-network executions** — multi-process runs
/// over TCP, including `kill -9` crashes and online Δ-guard
/// degradations (`ssp_engine::cluster::merge_reports`,
/// `tests/socket_cluster.rs`).
///
/// [`RunTrace::validate`]: ssp_runtime::RunTrace::validate
pub fn audit_instance<V, A>(
    algo: &A,
    config: &InitialConfig<V>,
    t: usize,
    result: &ThreadedOutcome<V, <A::Process as RoundProcess>::Msg>,
    mode: ValidityMode,
    instance: u64,
) -> InstanceAudit
where
    V: Value,
    A: RoundAlgorithm<V>,
{
    let trace = &result.trace;
    let retired = trace.retired.iter().any(Option::is_some);
    if !retired {
        return match check_threaded_run(algo, config, t, result, mode) {
            Ok(run) => InstanceAudit {
                instance,
                verdict: run.verdict,
                violation: run.violation,
                divergence: None,
                retired,
            },
            Err(d) => InstanceAudit {
                instance,
                verdict: verdict_of(trace, &result.synchrony),
                violation: mode.check(&result.outcome).err().map(|e| e.to_string()),
                divergence: Some(d.to_string()),
                retired,
            },
        };
    }
    if trace.aborted {
        return InstanceAudit {
            instance,
            verdict: RunVerdict::Aborted,
            violation: None,
            divergence: None,
            retired,
        };
    }
    let divergence = if result.synchrony.flagged() {
        None // flagged runs certify nothing; their traces may not validate
    } else {
        trace.validate().err().map(|e| e.to_string())
    };
    InstanceAudit {
        instance,
        verdict: verdict_of(trace, &result.synchrony),
        violation: mode.check(&result.outcome).err().map(|e| e.to_string()),
        divergence,
        retired,
    }
}

fn verdict_of<M>(
    trace: &ssp_runtime::RunTrace<M>,
    synchrony: &ssp_runtime::SynchronyReport,
) -> RunVerdict {
    if trace.aborted {
        RunVerdict::Aborted
    } else if synchrony.flagged() {
        RunVerdict::SynchronyViolation
    } else {
        match trace.degraded_at {
            Some(at) => RunVerdict::DegradedRws { at },
            None if trace.model == RoundModel::Rs => RunVerdict::Rs,
            None => RunVerdict::Rws,
        }
    }
}

/// Greedily minimizes a failing [`FaultPlan`]: repeatedly drops slow
/// links, then whole crashes (with their slow links), keeping every
/// change under which `still_fails` holds, until no single removal
/// preserves the failure.
pub fn shrink_plan<F>(plan: &FaultPlan, still_fails: F) -> FaultPlan
where
    F: Fn(&FaultPlan) -> bool,
{
    let mut best = plan.clone();
    loop {
        let mut improved = false;
        for i in 0..best.slow.len() {
            let mut cand = best.clone();
            cand.slow.remove(i);
            if still_fails(&cand) {
                best = cand;
                improved = true;
                break;
            }
        }
        if improved {
            continue;
        }
        for i in 0..best.n {
            if best.crashes[i].is_none() {
                continue;
            }
            let mut cand = best.clone();
            cand.crashes[i] = None;
            cand.slow.retain(|&(src, _, _)| src.index() != i);
            if still_fails(&cand) {
                best = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// The result of a seed sweep over the fault-injection plane.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Seeds executed.
    pub runs: u64,
    /// `(seed, violation)` for certified runs that broke the consensus
    /// spec — expected exactly when the algorithm is unsafe in the
    /// model.
    pub spec_violations: Vec<(u64, String)>,
    /// `(seed, detail)` for runs that diverged from the round models,
    /// each with its shrunk minimal plan. Always empty unless there is
    /// a bug in the runtime, the models, or the bridge.
    pub divergences: Vec<(u64, String)>,
    /// `(seed, violation-or-empty)` for runs the watchdog flagged as
    /// `SynchronyViolation` (Δ broken, degradation off). These are
    /// excluded from the checker cross-check: a bound-violating run is
    /// outside the model space the checker sweeps.
    pub synchrony_flags: Vec<(u64, String)>,
    /// Runs the watchdog downgraded to `RWS`.
    pub degraded: u64,
    /// Runs the watchdog aborted.
    pub aborted: u64,
    /// Whether the [`Verifier`] verdict over the same space agrees
    /// with the sweep (a spec-violating run implies a violating sweep).
    pub checker_agrees: bool,
}

impl FuzzReport {
    /// Whether the sweep found no divergence and the checker agrees.
    #[must_use]
    pub fn is_conformant(&self) -> bool {
        self.divergences.is_empty() && self.checker_agrees
    }
}

/// Sweeps `seeds` through seed-derived [`FaultPlan`]s: each seed is
/// set on a clone of `builder` (inheriting its model, chaos, degrade
/// mode, and clock backend), the resulting plan drives one threaded
/// run, which is certified by [`check_threaded_run`]; any divergence
/// is shrunk to a minimal plan with [`shrink_plan`]. Finally the
/// [`Verifier`] sweeps the same `(n, t, domain, model)` space and its
/// verdict is cross-checked.
///
/// # Panics
///
/// Panics if the builder's configuration is empty or a worker thread
/// panics.
pub fn fuzz_runtime<V, A>(
    builder: &RuntimeBuilder<'_, V, A>,
    seeds: Range<u64>,
    mode: ValidityMode,
) -> FuzzReport
where
    V: Value + Sync,
    A: RoundAlgorithm<V> + Sync,
    A::Process: Send + 'static,
    <A::Process as RoundProcess>::Msg: Send + 'static,
{
    let algo = builder.algo();
    let config = builder.config();
    let t = builder.t_bound();
    let run_plan = |plan: &FaultPlan| {
        builder
            .clone()
            .plan(plan.clone())
            .run()
            .expect("seed-derived plans produce valid runtime configurations")
    };
    let mut report = FuzzReport {
        checker_agrees: true,
        ..FuzzReport::default()
    };
    for seed in seeds {
        let plan = builder.clone().seed(seed).effective_plan();
        let result = run_plan(&plan);
        match check_threaded_run(algo, config, t, &result, mode) {
            Ok(run) => match run.verdict {
                RunVerdict::SynchronyViolation => {
                    report
                        .synchrony_flags
                        .push((seed, run.violation.unwrap_or_default()));
                }
                RunVerdict::Aborted => report.aborted += 1,
                certified => {
                    if matches!(certified, RunVerdict::DegradedRws { .. }) {
                        report.degraded += 1;
                    }
                    if let Some(violation) = run.violation {
                        report.spec_violations.push((seed, violation));
                    }
                }
            },
            Err(divergence) => {
                let minimal = shrink_plan(&plan, |cand| {
                    let rerun = run_plan(cand);
                    check_threaded_run(algo, config, t, &rerun, mode).is_err()
                });
                report
                    .divergences
                    .push((seed, format!("{divergence}; minimal plan: {minimal}")));
            }
        }
        report.runs += 1;
    }

    if !report.spec_violations.is_empty() {
        let mut domain: Vec<V> = config.inputs().to_vec();
        domain.sort();
        domain.dedup();
        let verdict = Verifier::new(algo)
            .n(config.n())
            .t(t)
            .domain(&domain)
            .mode(mode)
            .model(builder.plan_model())
            .run();
        report.checker_agrees = !verdict.is_ok();
        if !report.checker_agrees {
            let (seed, violation) = report.spec_violations[0].clone();
            report
                .divergences
                .push((seed, Divergence::CheckerDisagrees { violation }.to_string()));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_algos::{FloodSet, FloodSetWs, A1};
    use ssp_runtime::{ChaosConfig, DegradeMode, SECTION_5_3_SEED};

    #[test]
    fn section_5_3_seed_reproduces_the_anomaly_and_conforms() {
        let config = InitialConfig::new(vec![10u64, 11, 12]);
        let plan = FaultPlan::section_5_3();
        let result = RuntimeBuilder::new(&A1, &config).plan(plan).run().unwrap();
        let run = check_threaded_run(&A1, &config, 1, &result, ValidityMode::Uniform)
            .expect("the anomaly run conforms to RWS");
        let violation = run.violation.expect("uniform agreement must break");
        assert!(violation.contains("agree"), "{violation}");
        assert!(run.pending >= 2, "both withheld broadcasts are pending");
    }

    #[test]
    fn fuzz_a1_rws_finds_the_violation_and_no_divergence() {
        let config = InitialConfig::new(vec![10u64, 11, 12]);
        let report = fuzz_runtime(
            &RuntimeBuilder::new(&A1, &config).model(RoundModel::Rws),
            SECTION_5_3_SEED..SECTION_5_3_SEED + 1,
            ValidityMode::Uniform,
        );
        assert!(report.is_conformant(), "{:?}", report.divergences);
        assert_eq!(report.spec_violations.len(), 1);
    }

    #[test]
    fn fuzz_floodset_rs_is_clean() {
        let config = InitialConfig::new(vec![4u64, 6, 2]);
        let report = fuzz_runtime(
            &RuntimeBuilder::new(&FloodSet, &config).model(RoundModel::Rs),
            0..6,
            ValidityMode::Strong,
        );
        assert!(report.is_conformant(), "{:?}", report.divergences);
        assert!(report.spec_violations.is_empty(), "FloodSet is safe in RS");
    }

    #[test]
    fn fuzz_floodset_ws_rws_is_clean() {
        let config = InitialConfig::new(vec![10u64, 11, 12]);
        let report = fuzz_runtime(
            &RuntimeBuilder::new(&FloodSetWs, &config).model(RoundModel::Rws),
            0..6,
            ValidityMode::Uniform,
        );
        assert!(report.is_conformant(), "{:?}", report.divergences);
        assert!(
            report.spec_violations.is_empty(),
            "FloodSetWs tolerates pending messages: {:?}",
            report.spec_violations
        );
    }

    #[test]
    fn shrink_drops_irrelevant_faults() {
        let mut plan = FaultPlan::section_5_3();
        // Add an irrelevant slow link in round 2 (nothing is emitted
        // there, so dropping it cannot change any run).
        plan.slow.push((ProcessId::new(0), ProcessId::new(1), 2));
        let reference = plan.slow.len();
        // Shrink against "the plan still slows p1's round-1 broadcast".
        let minimal = shrink_plan(&plan, |cand| {
            cand.slow
                .contains(&(ProcessId::new(0), ProcessId::new(1), 1))
        });
        assert!(minimal.slow.len() < reference);
        assert_eq!(
            minimal.slow,
            vec![(ProcessId::new(0), ProcessId::new(1), 1)],
            "only the load-bearing link survives"
        );
        // The crash survives: removing it would also retain out its
        // slow links (a slow link from a live sender violates
        // Lemma 4.1), which the predicate needs.
        assert!(minimal.crashes[0].is_some());
        assert!(minimal.crashes[1..].iter().all(Option::is_none));
    }

    #[test]
    fn delta_violation_without_degradation_is_flagged_not_certified() {
        let config = InitialConfig::new(vec![10u64, 11, 12]);
        let plan = FaultPlan::delta_violation();
        let result = RuntimeBuilder::new(&A1, &config).plan(plan).run().unwrap();
        assert!(result.synchrony.violated, "the slow wires must trip Δ");
        let run = check_threaded_run(&A1, &config, 1, &result, ValidityMode::Uniform)
            .expect("flagged runs are reported, not divergences");
        assert_eq!(run.verdict, RunVerdict::SynchronyViolation);
        assert!(!run.verdict.is_certified());
        let violation = run.violation.expect("uniform agreement must break");
        assert!(violation.contains("agree"), "{violation}");
    }

    #[test]
    fn delta_violation_with_rws_degradation_is_admissible() {
        let config = InitialConfig::new(vec![10u64, 11, 12]);
        let plan = FaultPlan::delta_violation().with_degrade(DegradeMode::Rws);
        let result = RuntimeBuilder::new(&A1, &config).plan(plan).run().unwrap();
        let run = check_threaded_run(&A1, &config, 1, &result, ValidityMode::Uniform)
            .expect("degraded runs must certify as RWS");
        assert!(
            matches!(run.verdict, RunVerdict::DegradedRws { .. }),
            "{:?}",
            run.verdict
        );
        assert!(run.verdict.is_certified());
    }

    #[test]
    fn delta_violation_with_abort_stops_the_run() {
        let config = InitialConfig::new(vec![10u64, 11, 12]);
        let plan = FaultPlan::delta_violation().with_degrade(DegradeMode::Abort);
        let result = RuntimeBuilder::new(&A1, &config).plan(plan).run().unwrap();
        assert!(result.synchrony.aborted);
        let run = check_threaded_run(&A1, &config, 1, &result, ValidityMode::Uniform)
            .expect("aborted runs are reported, not divergences");
        assert_eq!(run.verdict, RunVerdict::Aborted);
        assert!(run.violation.is_none(), "nothing is certified or judged");
    }

    #[test]
    fn chaos_sweep_stays_conformant() {
        let config = InitialConfig::new(vec![4u64, 6, 2]);
        let chaos = ChaosConfig {
            loss_pm: 300,
            dup_pm: 100,
            reorder_pm: 50,
        };
        let rs = fuzz_runtime(
            &RuntimeBuilder::new(&FloodSet, &config)
                .model(RoundModel::Rs)
                .chaos(Some(chaos)),
            0..4,
            ValidityMode::Strong,
        );
        assert!(rs.is_conformant(), "{:?}", rs.divergences);
        assert!(
            rs.synchrony_flags.is_empty(),
            "reliable delivery keeps chaos inside Δ: {:?}",
            rs.synchrony_flags
        );
        let rws = fuzz_runtime(
            &RuntimeBuilder::new(&FloodSetWs, &config)
                .model(RoundModel::Rws)
                .chaos(Some(chaos)),
            0..4,
            ValidityMode::Uniform,
        );
        assert!(rws.is_conformant(), "{:?}", rws.divergences);
        assert!(rws.spec_violations.is_empty(), "{:?}", rws.spec_violations);
    }

    #[test]
    fn divergence_displays() {
        let d = Divergence::DeliveryMismatch {
            round: Round::FIRST,
        };
        assert!(d.to_string().contains("round 1"));
        let d = Divergence::CheckerDisagrees {
            violation: "x".into(),
        };
        assert!(d.to_string().contains("checker"));
    }
}
