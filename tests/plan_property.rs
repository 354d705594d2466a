//! Property tests for the fault-injection plane: seed determinism of
//! [`FaultPlan`] and of the [`RunTrace`]s it induces, and confinement
//! of every scripted delay to its [`NetConfig`] bound.
//!
//! [`RunTrace`]: ssp::runtime::RunTrace
//! [`NetConfig`]: ssp::runtime::NetConfig

use proptest::prelude::*;

use ssp::algos::{FloodSetWs, A1};
use ssp::model::InitialConfig;
use ssp::runtime::plan::{FAST_MAX, NOTIFY_BASE, NOTIFY_JITTER, SLOW};
use ssp::runtime::{FaultPlan, PlanModel, RuntimeBuilder};

fn model() -> impl Strategy<Value = PlanModel> {
    (0u8..2).prop_map(|b| {
        if b == 0 {
            PlanModel::Rs
        } else {
            PlanModel::Rws
        }
    })
}

proptest! {
    #[test]
    fn same_seed_same_plan(seed in 0u64..1_000_000, m in model()) {
        let a = FaultPlan::from_seed(seed, 4, 2, 3, m);
        let b = FaultPlan::from_seed(seed, 4, 2, 3, m);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn plans_stay_within_their_declared_bounds(
        seed in 0u64..1_000_000,
        n in 2usize..6,
        t_off in 0usize..3,
        m in model(),
    ) {
        let t = t_off.min(n - 1);
        let horizon = t as u32 + 1;
        let plan = FaultPlan::from_seed(seed, n, t, horizon, m);
        prop_assert!(plan.fault_count() <= t, "at most t crashes");
        for (src, dst, round) in &plan.slow {
            // Slow links only script wires a crashing sender emits in
            // its Lemma 4.1 window — round crash_round−1 or later.
            let crash = plan.crashes[src.index()]
                .expect("slow links belong to crashing senders");
            prop_assert!(*round >= 1 && *round <= horizon);
            prop_assert!(*round + 1 >= crash.round, "Lemma 4.1 window");
            prop_assert!(src != dst, "self-delivery is never scripted");
        }
        // RWS plans script an n×n oracle-notification matrix, every
        // entry within the oracle's declared window; RS plans use the
        // timeout detector and script none.
        match m {
            PlanModel::Rs => prop_assert!(plan.notify.is_empty()),
            PlanModel::Rws => {
                prop_assert_eq!(plan.notify.len(), n);
                for row in &plan.notify {
                    prop_assert_eq!(row.len(), n);
                    for d in row {
                        prop_assert!(*d >= NOTIFY_BASE && *d <= NOTIFY_BASE + NOTIFY_JITTER);
                    }
                }
            }
        }
        let script = plan.link_script();
        for (src, dst, round) in &plan.slow {
            prop_assert_eq!(
                script.delay(*src, *dst, (*round - 1) as usize),
                Some(SLOW),
                "round r maps to per-link message index r−1"
            );
        }
        prop_assert!(SLOW > FAST_MAX, "slow means slower than every fast bound");
    }
}

proptest! {
    // Wall-clock runs are costly: a handful of cases is plenty, and
    // each asserts bit-identical re-execution — the whole point of
    // the determinism-by-margins design.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn same_seed_same_run_trace_rws(seed in 0u64..500) {
        let config = InitialConfig::new(vec![10u64, 11, 12]);
        let plan = FaultPlan::from_seed(seed, 3, 1, 2, PlanModel::Rws);
        let run = || {
            RuntimeBuilder::new(&FloodSetWs, &config)
                .plan(plan.clone())
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.trace.run_log(), b.trace.run_log());
        prop_assert_eq!(&a.trace.crashes, &b.trace.crashes);
        prop_assert_eq!(a.trace.pending().triples(), b.trace.pending().triples());
    }

    #[test]
    fn same_seed_same_run_trace_rs(seed in 0u64..500) {
        let config = InitialConfig::new(vec![10u64, 11, 12]);
        let plan = FaultPlan::from_seed(seed, 3, 1, 2, PlanModel::Rs);
        let run = || {
            RuntimeBuilder::new(&A1, &config)
                .plan(plan.clone())
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.trace.run_log(), b.trace.run_log());
        prop_assert!(a.trace.pending().is_empty(), "RS drains everything");
    }
}
