//! Equivalence suite for the symmetry reduction: for every gated
//! algorithm and every small space, the reduced sweep must reach the
//! *same verdict* as the full sweep, represent the *same number* of
//! runs, and report the *same latency functionals* — the reduction is
//! an optimization, never an approximation.
//!
//! A property-based layer checks the algebra underneath: configuration
//! canonicalization is idempotent and constant on orbits, and orbit
//! weights partition the full space.

use proptest::prelude::*;

use ssp::algos::{FloodSet, FloodSetWs, A1};
use ssp::lab::symmetry::{all_permutations, pending_orbit, schedule_orbit, stabilizer};
use ssp::lab::{crash_schedules, RoundModel, Symmetry, ValidityMode, Verifier};
use ssp::model::{canonical_full_classes, canonical_value_classes, InitialConfig};

/// Reduced and unreduced sweeps agree on verdict, coverage and latency
/// for the process-symmetric algorithms, across models and (n, t).
#[test]
fn reduced_and_full_sweeps_agree_for_symmetric_algorithms() {
    for (n, t) in [(2usize, 1usize), (3, 1), (3, 2), (4, 1)] {
        for model in [RoundModel::Rs, RoundModel::Rws] {
            let full = Verifier::new(&FloodSetWs)
                .n(n)
                .t(t)
                .domain(&[0u64, 1])
                .mode(ValidityMode::Strong)
                .model(model)
                .collect_latency()
                .run();
            let reduced = Verifier::new(&FloodSetWs)
                .n(n)
                .t(t)
                .domain(&[0u64, 1])
                .mode(ValidityMode::Strong)
                .model(model)
                .symmetry(Symmetry::Full)
                .collect_latency()
                .run();
            assert_eq!(full.is_ok(), reduced.is_ok(), "verdict at n={n} t={t}");
            assert_eq!(
                reduced.represented, full.runs,
                "orbit weights cover the space at n={n} t={t}"
            );
            assert!(
                reduced.runs < full.runs,
                "reduction must save work at n={n} t={t}: {} vs {}",
                reduced.runs,
                full.runs
            );
            let (fl, rl) = (full.latency.unwrap(), reduced.latency.unwrap());
            assert_eq!(fl.runs, rl.runs, "weighted run totals at n={n} t={t}");
            assert_eq!(fl.lat(), rl.lat());
            assert_eq!(fl.lat_max_over_configs(), rl.lat_max_over_configs());
            assert_eq!(fl.capital_lambda(), rl.capital_lambda());
            assert_eq!(fl.lat_at_most_faults(t), rl.lat_at_most_faults(t));
            assert_eq!(fl.max_faults_seen(), rl.max_faults_seen());
        }
    }
}

/// FloodSet's RWS violation (E4) survives the reduction: symmetry must
/// never canonicalize a bug away.
#[test]
fn reduced_sweep_still_finds_the_floodset_rws_violation() {
    for t in [1usize, 2] {
        let full = Verifier::new(&FloodSet)
            .n(3)
            .t(t)
            .domain(&[0u64, 1])
            .model(RoundModel::Rws)
            .run();
        let reduced = Verifier::new(&FloodSet)
            .n(3)
            .t(t)
            .domain(&[0u64, 1])
            .model(RoundModel::Rws)
            .symmetry(Symmetry::Full)
            .run();
        let (f, r) = (full.expect_violation(), reduced.expect_violation());
        assert!(
            !r.pending.is_empty(),
            "the reduced counterexample still needs pending messages"
        );
        // Both counterexamples replay to genuine violations of the same
        // clause (the reduced one is the canonical representative, not
        // necessarily the identical run).
        assert_eq!(
            std::mem::discriminant(&f.violation),
            std::mem::discriminant(&r.violation)
        );
    }
}

/// A1 (value-symmetric only): the values-level reduction preserves both
/// the RS pass and the RWS failure.
#[test]
fn value_reduction_is_sound_for_a1() {
    let rs = Verifier::new(&A1)
        .n(3)
        .t(1)
        .domain(&[0u64, 1])
        .mode(ValidityMode::Strong)
        .symmetry_values()
        .run();
    rs.expect_ok();
    let full_rs = Verifier::new(&A1)
        .n(3)
        .t(1)
        .domain(&[0u64, 1])
        .mode(ValidityMode::Strong)
        .run();
    assert_eq!(rs.represented, full_rs.runs, "value orbits cover the space");

    let rws = Verifier::new(&A1)
        .n(3)
        .t(1)
        .domain(&[0u64, 1])
        .model(RoundModel::Rws)
        .symmetry_values()
        .run();
    rws.expect_violation();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Canonicalization is idempotent: canon(canon(C)) = canon(C).
    #[test]
    fn canonicalization_is_idempotent(inputs in proptest::collection::vec(0u64..4, 2..=4)) {
        let domain: Vec<u64> = (0..4).collect();
        let config = InitialConfig::new(inputs);
        let canon = config.canonical_full(&domain);
        prop_assert_eq!(canon.canonical_full(&domain), canon);
    }

    /// Canonicalization is orbit-invariant: permuting processes and/or
    /// monotonically relabeling values never changes the canonical form.
    #[test]
    fn canonicalization_is_orbit_invariant(
        inputs in proptest::collection::vec(0u64..3, 3),
        perm_index in 0usize..6,
        shift in 0u64..5,
    ) {
        let domain: Vec<u64> = (0..8).collect();
        let config = InitialConfig::new(inputs);
        let perms = all_permutations(3);
        let permuted = config.permuted(&perms[perm_index]);
        prop_assert_eq!(
            config.canonical_full(&domain),
            permuted.canonical_full(&domain)
        );
        // A monotone relabeling (here: shift all values up) is also
        // quotiented out.
        let shifted = InitialConfig::new(
            config.inputs().iter().map(|v| v + shift).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            config.canonical_full(&domain),
            shifted.canonical_full(&domain)
        );
    }

    /// Orbit weights from the class enumerations partition the full
    /// configuration space: Σ |orbit| = |domain|^n.
    #[test]
    fn class_weights_partition_the_config_space(
        n in 2usize..=4,
        d in 2usize..=3,
    ) {
        let domain: Vec<u64> = (0..d as u64).collect();
        let space = (d as u64).pow(n as u32);
        let value_sum: u64 = canonical_value_classes(n, &domain).iter().map(|&(_, w)| w).sum();
        prop_assert_eq!(value_sum, space);
        let full_sum: u64 = canonical_full_classes(n, &domain).iter().map(|&(_, w)| w).sum();
        prop_assert_eq!(full_sum, space);
    }

    /// Schedule orbit weights under a stabilizer partition the schedule
    /// set: Σ over canonical schedules of |orbit| = |schedules|.
    #[test]
    fn schedule_orbits_partition_under_any_stabilizer(
        inputs in proptest::collection::vec(0u64..2, 3),
        t in 1usize..=2,
    ) {
        let group = stabilizer(&inputs);
        let schedules = crash_schedules(3, t, 3);
        let mut covered = 0u64;
        for s in &schedules {
            if let Some((weight, stab)) = schedule_orbit(s, &group) {
                covered += weight;
                prop_assert_eq!(weight as usize * stab.len(), group.len(), "orbit–stabilizer");
            }
        }
        prop_assert_eq!(covered as usize, schedules.len());
    }

    /// Pending orbit weights under a schedule stabilizer partition each
    /// schedule's pending-choice set.
    #[test]
    fn pending_orbits_partition_under_schedule_stabilizers(
        inputs in proptest::collection::vec(0u64..2, 3),
        schedule_index in 0usize..50,
    ) {
        let group = stabilizer(&inputs);
        let schedules = crash_schedules(3, 2, 3);
        let schedule = &schedules[schedule_index % schedules.len()];
        if let Some((_, stab)) = schedule_orbit(schedule, &group) {
            let pendings = ssp::lab::pending_choices(schedule, 2);
            let mut covered = 0u64;
            for p in &pendings {
                if let Some(w) = pending_orbit(p, &stab) {
                    covered += w;
                }
            }
            prop_assert_eq!(covered as usize, pendings.len());
        }
    }
}
