//! E20 — backend conformance: the virtual (discrete-event) clock and
//! the real (OS) clock execute the *same* threaded code, and for every
//! seeded fault plan they must emit byte-identical canonical
//! [`RunLog`](ssp::model::RunLog)s — deliveries, withholds, crashes,
//! closes, in the same order, serialized to the same JSONL bytes.
//!
//! That is the load-bearing claim behind defaulting the runtime to
//! [`Backend::Virtual`]: simulated time is not an approximation of the
//! wall-clock runtime but an exact reproduction of its round-level
//! behaviour, thousands of times faster. The suite pins:
//!
//! * seed sweeps in both models (chaos on for a slice of them),
//! * the §5.3 anomaly seed (519) with its uniform-agreement violation,
//! * the scripted Δ-violation under all three degrade modes,
//! * bit-determinism of virtual-time reruns (proptest).

use proptest::prelude::*;

use ssp::algos::{FloodSet, FloodSetWs, A1};
use ssp::model::{check_uniform_consensus, InitialConfig};
use ssp::runtime::{Backend, DegradeMode, FaultPlan, RuntimeBuilder, SECTION_5_3_SEED};

mod common;
use common::{section_5_3_config, CHAOS};
use ssp::rounds::RoundModel;

/// Runs the §5.3 configuration for `algo` under `builder` tweaks on
/// one backend and returns the canonical run log as JSONL.
macro_rules! log_on {
    ($builder:expr, $backend:expr) => {
        $builder
            .clone()
            .backend($backend)
            .run()
            .unwrap()
            .trace
            .run_log()
            .to_jsonl()
    };
}

#[test]
fn rs_seed_sweep_logs_agree_across_backends() {
    let config = InitialConfig::new(vec![7u64, 3, 5]);
    for seed in 0..6 {
        let b = RuntimeBuilder::new(&FloodSet, &config)
            .model(RoundModel::Rs)
            .seed(seed);
        assert_eq!(
            log_on!(b, Backend::Virtual),
            log_on!(b, Backend::Real),
            "RS seed {seed}: virtual and real logs must match byte for byte"
        );
    }
}

#[test]
fn rws_seed_sweep_logs_agree_across_backends() {
    let config = InitialConfig::new(vec![7u64, 3, 5]);
    for seed in 0..6 {
        let b = RuntimeBuilder::new(&FloodSetWs, &config)
            .model(RoundModel::Rws)
            .seed(seed);
        assert_eq!(
            log_on!(b, Backend::Virtual),
            log_on!(b, Backend::Real),
            "RWS seed {seed}: virtual and real logs must match byte for byte"
        );
    }
}

#[test]
fn chaos_sweep_logs_agree_across_backends() {
    let config = InitialConfig::new(vec![4u64, 6, 2]);
    for seed in 0..3 {
        let b = RuntimeBuilder::new(&FloodSet, &config)
            .model(RoundModel::Rs)
            .chaos(Some(CHAOS))
            .seed(seed);
        assert_eq!(
            log_on!(b, Backend::Virtual),
            log_on!(b, Backend::Real),
            "chaos seed {seed}: the reliable layer masks chaos identically on both clocks"
        );
    }
}

#[test]
fn section_5_3_seed_agrees_across_backends_and_keeps_the_anomaly() {
    let config = section_5_3_config();
    let b = RuntimeBuilder::new(&A1, &config)
        .model(RoundModel::Rws)
        .seed(SECTION_5_3_SEED);
    let virt = b.clone().backend(Backend::Virtual).run().unwrap();
    let real = b.clone().backend(Backend::Real).run().unwrap();
    assert_eq!(
        virt.trace.run_log().to_jsonl(),
        real.trace.run_log().to_jsonl(),
        "seed {SECTION_5_3_SEED}: the §5.3 run log is backend-invariant"
    );
    for result in [&virt, &real] {
        assert!(
            check_uniform_consensus(&result.outcome).is_err(),
            "the uniform-agreement violation appears on both clocks"
        );
        assert_eq!(result.trace.pending().len(), 2, "both broadcasts pending");
    }
}

#[test]
fn delta_violation_agrees_across_backends_in_all_degrade_modes() {
    let config = section_5_3_config();
    for mode in [DegradeMode::Off, DegradeMode::Rws, DegradeMode::Abort] {
        let plan = FaultPlan::delta_violation().with_degrade(mode);
        let b = RuntimeBuilder::new(&A1, &config).plan(plan);
        let virt = b.clone().backend(Backend::Virtual).run().unwrap();
        let real = b.clone().backend(Backend::Real).run().unwrap();
        assert_eq!(
            virt.trace.run_log().to_jsonl(),
            real.trace.run_log().to_jsonl(),
            "degrade={mode}: the Δ-violation log is backend-invariant"
        );
        assert_eq!(
            virt.synchrony.violated, real.synchrony.violated,
            "degrade={mode}: both clocks trip the watchdog"
        );
        assert_eq!(virt.trace.aborted, real.trace.aborted, "degrade={mode}");
        assert_eq!(
            virt.trace.degraded_at, real.trace.degraded_at,
            "degrade={mode}"
        );
    }
}

proptest! {
    // Virtual runs are cheap (no real sleeps), so a proptest sweep is
    // affordable where a real-clock one would not be.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn virtual_runs_are_bit_deterministic_across_reruns(
        seed in 0u64..5_000,
        rws in (0u8..2).prop_map(|b| b == 1),
    ) {
        let config = section_5_3_config();
        let model = if rws { RoundModel::Rws } else { RoundModel::Rs };
        let jsonl = || {
            if rws {
                let b = RuntimeBuilder::new(&FloodSetWs, &config).model(model).seed(seed);
                log_on!(b, Backend::Virtual)
            } else {
                let b = RuntimeBuilder::new(&FloodSet, &config).model(model).seed(seed);
                log_on!(b, Backend::Virtual)
            }
        };
        prop_assert_eq!(jsonl(), jsonl(), "virtual time is bit-deterministic");
    }
}
