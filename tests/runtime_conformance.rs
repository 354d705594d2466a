//! E18 — runtime ↔ model conformance: every seeded wall-clock run of
//! the threaded runtime is an admissible run of the round models,
//! replays tick-for-tick, passes the `ssp-sim` step validators, and
//! its safety verdict agrees with the `Verifier`'s sweep.

use ssp::algos::{FloodSet, FloodSetWs, A1};
use ssp::lab::{check_threaded_run, fuzz_runtime, shrink_plan, ValidityMode};
use ssp::model::InitialConfig;
use ssp::rounds::RoundModel;
use ssp::runtime::{FaultPlan, RuntimeBuilder, SECTION_5_3_SEED};
use ssp::sim::{validate_basic, validate_perfect_fd};

#[test]
fn a1_rws_seed_sweep_conforms_and_finds_the_paper_violation() {
    let config = InitialConfig::new(vec![10u64, 11, 12]);
    // A window around the documented seed: mostly benign plans plus
    // the §5.3 anomaly itself.
    let report = fuzz_runtime(
        &RuntimeBuilder::new(&A1, &config).model(RoundModel::Rws),
        SECTION_5_3_SEED - 8..SECTION_5_3_SEED + 8,
        ValidityMode::Uniform,
    );
    assert_eq!(report.runs, 16);
    assert!(
        report.is_conformant(),
        "no divergence and the checker agrees: {:?}",
        report.divergences
    );
    assert!(
        report
            .spec_violations
            .iter()
            .any(|(seed, _)| *seed == SECTION_5_3_SEED),
        "seed {SECTION_5_3_SEED} reproduces §5.3: {:?}",
        report.spec_violations
    );
}

#[test]
fn floodset_rs_seed_sweep_is_conformant_and_safe() {
    let config = InitialConfig::new(vec![7u64, 3, 5]);
    let report = fuzz_runtime(
        &RuntimeBuilder::new(&FloodSet, &config).model(RoundModel::Rs),
        0..12,
        ValidityMode::Strong,
    );
    assert_eq!(report.runs, 12);
    assert!(report.is_conformant(), "{:?}", report.divergences);
    assert!(
        report.spec_violations.is_empty(),
        "FloodSet is safe in RS: {:?}",
        report.spec_violations
    );
}

#[test]
fn floodset_ws_rws_seed_sweep_is_conformant_and_safe() {
    let config = InitialConfig::new(vec![7u64, 3, 5]);
    let report = fuzz_runtime(
        &RuntimeBuilder::new(&FloodSetWs, &config).model(RoundModel::Rws),
        0..12,
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
fn section_5_3_trace_passes_every_validator_individually() {
    let config = InitialConfig::new(vec![10u64, 11, 12]);
    let plan = FaultPlan::section_5_3();
    let result = RuntimeBuilder::new(&A1, &config).plan(plan).run().unwrap();

    // The canonical record is admissible in RWS...
    result.trace.validate().expect("admissible RWS trace");
    // ...its step-level run log satisfies the §2 validators...
    let steps = result.trace.step_log().expect("schedulable");
    validate_basic(&steps).expect("well-formed step log");
    validate_perfect_fd(&steps).expect("strong accuracy holds");
    // ...and the full certification (replay + outcome comparison)
    // confirms the uniform-agreement violation is real.
    let run = check_threaded_run(&A1, &config, 1, &result, ValidityMode::Uniform)
        .expect("the anomaly is a conforming run, not a runtime bug");
    let violation = run.violation.expect("§5.3: uniform agreement breaks");
    assert!(violation.contains("agree"), "{violation}");
    assert_eq!(run.pending, 2, "both round-1 broadcasts stay pending");
}

#[test]
fn replayed_traces_are_deterministic_across_repeated_runs() {
    let config = InitialConfig::new(vec![10u64, 11, 12]);
    let plan = FaultPlan::section_5_3();
    let run = || {
        RuntimeBuilder::new(&A1, &config)
            .plan(plan.clone())
            .run()
            .unwrap()
    };
    let first = run();
    let second = run();
    // The canonical run logs — delivery matrices included — are
    // byte-identical run after run.
    assert_eq!(
        first.trace.run_log().to_jsonl(),
        second.trace.run_log().to_jsonl(),
        "a fixed plan yields one run log, run after run"
    );
    assert_eq!(first.trace.crashes, second.trace.crashes);
}

#[test]
fn shrinking_the_section_5_3_plan_keeps_it_minimal() {
    let config = InitialConfig::new(vec![10u64, 11, 12]);
    let plan = FaultPlan::section_5_3();
    let violates = |cand: &FaultPlan| {
        let result = RuntimeBuilder::new(&A1, &config)
            .plan(cand.clone())
            .run()
            .unwrap();
        check_threaded_run(&A1, &config, 1, &result, ValidityMode::Uniform)
            .map(|run| run.violation.is_some())
            .unwrap_or(false)
    };
    assert!(violates(&plan), "the full plan violates");
    let minimal = shrink_plan(&plan, violates);
    // Every fault is load-bearing: the crash plus both slow links. A
    // single delivered broadcast would let the relay save agreement.
    assert_eq!(minimal.slow.len(), 2, "both slow links required");
    assert!(minimal.crashes[0].is_some(), "the crash is required");
    assert!(violates(&minimal));
}
