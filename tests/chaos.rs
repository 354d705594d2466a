//! E19 — chaos network layer, synchrony watchdog, and RS→RWS
//! degradation:
//!
//! * seed-deterministic loss/duplication/reordering is fully masked by
//!   the reliable-delivery layer: chaos sweeps produce zero
//!   conformance divergences, bit-identical across repeated runs;
//! * the §5.3 seed (519) still reproduces its uniform-agreement
//!   violation with the chaos layer active;
//! * a scripted Δ-violation inside "RS" is flagged as a
//!   `SynchronyViolation` with degradation off, certified as an
//!   admissible RWS run with `--degrade=rws`, and stopped with
//!   `--degrade=abort` — same seed, same bits, three verdicts;
//! * a stalled-but-live process is recorded as a *detector mistake*,
//!   not a crash.

use std::time::Duration;

use ssp::algos::{FloodSet, FloodSetWs, A1};
use ssp::lab::{check_threaded_run, fuzz_runtime, RunVerdict, ValidityMode};
use ssp::model::{InitialConfig, ProcessId, Round};
use ssp::runtime::{DegradeMode, FaultPlan, RuntimeBuilder, Stall, SynchronyEvent};

mod common;
use common::{section_5_3_config, CHAOS};
use ssp::rounds::RoundModel;

#[test]
fn chaos_sweeps_conform_in_both_models() {
    let config = InitialConfig::new(vec![4u64, 6, 2]);
    let rs = fuzz_runtime(
        &RuntimeBuilder::new(&FloodSet, &config)
            .model(RoundModel::Rs)
            .chaos(Some(CHAOS))
            .degrade(DegradeMode::Off),
        0..16,
        ValidityMode::Strong,
    );
    assert_eq!(rs.runs, 16);
    assert!(rs.is_conformant(), "RS divergences: {:?}", rs.divergences);
    assert!(
        rs.synchrony_flags.is_empty(),
        "reliable delivery keeps chaos inside Δ: {:?}",
        rs.synchrony_flags
    );
    assert!(rs.spec_violations.is_empty(), "{:?}", rs.spec_violations);

    let rws = fuzz_runtime(
        &RuntimeBuilder::new(&FloodSetWs, &config)
            .model(RoundModel::Rws)
            .chaos(Some(CHAOS)),
        0..16,
        ValidityMode::Uniform,
    );
    assert_eq!(rws.runs, 16);
    assert!(
        rws.is_conformant(),
        "RWS divergences: {:?}",
        rws.divergences
    );
    assert!(rws.spec_violations.is_empty(), "{:?}", rws.spec_violations);
}

#[test]
fn section_5_3_seed_reproduces_bit_identically_under_chaos() {
    let config = section_5_3_config();
    let run = || {
        let plan = FaultPlan::section_5_3().with_chaos(CHAOS);
        let result = RuntimeBuilder::new(&A1, &config).plan(plan).run().unwrap();
        let report = check_threaded_run(&A1, &config, 1, &result, ValidityMode::Uniform)
            .expect("the chaos-wrapped anomaly still conforms to RWS");
        (result, report)
    };
    let (a, ra) = run();
    let (b, rb) = run();
    assert_eq!(a.trace, b.trace, "same seed, same bits");
    assert_eq!(
        a.net, b.net,
        "same chaos decisions, same transport counters"
    );
    let va = ra.violation.expect("uniform agreement must still break");
    assert_eq!(Some(va.as_str()), rb.violation.as_deref());
    assert!(va.contains("agree"), "{va}");
    assert!(ra.pending >= 2, "both withheld broadcasts stay pending");
    assert_eq!(ra.verdict, RunVerdict::Rws);
    // The chaos plane actually fired and the reliable layer masked it.
    assert!(
        a.net.chaos_dropped > 0 || a.net.chaos_duplicated > 0,
        "chaos at 300‰ loss / 100‰ dup should touch at least one wire: {:?}",
        a.net
    );
}

#[test]
fn delta_violation_without_degradation_is_flagged_deterministically() {
    let config = section_5_3_config();
    let run = || {
        let plan = FaultPlan::delta_violation();
        let result = RuntimeBuilder::new(&A1, &config).plan(plan).run().unwrap();
        let report = check_threaded_run(&A1, &config, 1, &result, ValidityMode::Uniform)
            .expect("flagged runs are reported, not divergences");
        (result, report)
    };
    let (a, ra) = run();
    let (b, rb) = run();
    assert_eq!(a.trace, b.trace, "same seed, same bits");
    assert_eq!(ra.verdict, RunVerdict::SynchronyViolation);
    assert_eq!(rb.verdict, RunVerdict::SynchronyViolation);
    // The watchdog saw the over-Δ wires the moment they were scheduled,
    // and the stranded wires again at shutdown.
    assert!(a.synchrony.violated);
    assert_eq!(a.net.slow_scheduled, 2);
    assert_eq!(
        a.net.undelivered, 2,
        "slow wires drained cleanly at shutdown"
    );
    // The §5.3 shape, smuggled into "RS": p1 decided its own value and
    // died; the survivors decided another.
    let violation = ra.violation.expect("uniform agreement breaks");
    assert!(violation.contains("agree"), "{violation}");
    assert_eq!(
        a.outcome
            .outcome(ProcessId::new(0))
            .decision
            .as_ref()
            .map(|d| d.0),
        Some(10)
    );
    for q in [1, 2] {
        assert_eq!(
            a.outcome
                .outcome(ProcessId::new(q))
                .decision
                .as_ref()
                .map(|d| d.0),
            Some(11)
        );
    }
}

#[test]
fn delta_violation_with_rws_degradation_is_admissible_same_seed() {
    let config = section_5_3_config();
    let run = || {
        let plan = FaultPlan::delta_violation().with_degrade(DegradeMode::Rws);
        let result = RuntimeBuilder::new(&A1, &config).plan(plan).run().unwrap();
        let report = check_threaded_run(&A1, &config, 1, &result, ValidityMode::Uniform)
            .expect("degraded runs certify as RWS");
        (result, report)
    };
    let (a, ra) = run();
    let (b, _rb) = run();
    assert_eq!(a.trace, b.trace, "same seed, same bits");
    assert_eq!(
        ra.verdict,
        RunVerdict::DegradedRws { at: Round::new(1) },
        "downgraded at the first over-Δ wire"
    );
    assert_eq!(a.trace.degraded_at, Some(Round::new(1)));
    assert!(a.trace.validate().is_ok(), "admissible under RWS");
    // Degradation does not repair A1 — it re-classifies the run as the
    // RWS execution it really was, where the violation is the known
    // §5.3 behavior rather than a broken RS guarantee.
    assert!(ra.violation.is_some());
}

#[test]
fn delta_violation_with_abort_leaves_survivors_undecided() {
    let config = section_5_3_config();
    let plan = FaultPlan::delta_violation().with_degrade(DegradeMode::Abort);
    let result = RuntimeBuilder::new(&A1, &config).plan(plan).run().unwrap();
    assert!(result.synchrony.aborted);
    assert!(result.trace.aborted);
    let report = check_threaded_run(&A1, &config, 1, &result, ValidityMode::Uniform)
        .expect("aborted runs are reported, not divergences");
    assert_eq!(report.verdict, RunVerdict::Aborted);
    // The survivors bail before any suspicion could close a round;
    // nothing they produced is trusted, so no disagreement can escape.
    for q in [1, 2] {
        assert!(
            result.outcome.outcome(ProcessId::new(q)).decision.is_none(),
            "survivor p{} must stop undecided",
            q + 1
        );
    }
}

#[test]
fn stalled_process_is_a_detector_mistake_not_a_crash() {
    // p2 sleeps through its FD timeout at the start of round 1: live
    // but silent. The drain discipline still collects its late wires,
    // so the run completes correctly — but the watchdog must record
    // that the "perfect" detector suspected a live process.
    let config = InitialConfig::new(vec![4u64, 6, 2]);
    let plan = FaultPlan::from_seed(0, 3, 1, 2, RoundModel::Rs).with_stall(
        ProcessId::new(1),
        Stall {
            round: 1,
            duration: Duration::from_millis(150),
        },
    );
    let result = RuntimeBuilder::new(&FloodSet, &config)
        .plan(plan)
        .run()
        .unwrap();
    assert!(result.synchrony.violated, "the mistake trips the watchdog");
    let mistakes: Vec<_> = result
        .synchrony
        .events
        .iter()
        .filter(|e| matches!(e, SynchronyEvent::DetectorMistake { suspect, .. } if *suspect == ProcessId::new(1)))
        .collect();
    assert!(!mistakes.is_empty(), "{:?}", result.synchrony.events);
    // Not a crash: the stalled process finished every round and decided.
    assert!(result
        .outcome
        .outcome(ProcessId::new(1))
        .crashed_in
        .is_none());
    assert!(result.outcome.outcome(ProcessId::new(1)).decision.is_some());
    // The run itself is admissible (the drain saved round synchrony),
    // but it is flagged, never silently certified as RS.
    let report = check_threaded_run(&FloodSet, &config, 1, &result, ValidityMode::Strong)
        .expect("flagged, not divergent");
    assert_eq!(report.verdict, RunVerdict::SynchronyViolation);
    assert!(report.violation.is_none(), "decisions were still correct");
}
