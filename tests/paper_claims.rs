//! The paper's claims, one integration test per experiment id of
//! DESIGN.md (E1–E9). Each test exercises several crates end-to-end.

use ssp::algos::{
    COptFloodSet, COptFloodSetWs, FOptFloodSet, FOptFloodSetWs, FloodSet, FloodSetWs, SddSender,
    SsSddReceiver, A1,
};
use ssp::lab::impossibility::candidates::{PatientWait, WaitOrSuspect};
use ssp::lab::{
    all_round1_candidates, decides_round1_when_failure_free, explore_runs, refute,
    refute_round1_candidate, LatencyAggregator, RoundModel, SddRefutation, ValidityMode,
    Verification, Verifier,
};
use ssp::model::spec::ConsensusViolation;
use ssp::model::{check_sdd, check_uniform_consensus_strong, InitialConfig, ProcessId, SddOutcome};
use ssp::rounds::{run_rs, CrashSchedule, RoundAlgorithm};
use ssp::sim::{run, step_count, BoxedAutomaton, FairAdversary, ModelKind, RandomAdversary};

fn p(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Exhaustive `RS` sweep through the unified builder.
fn verify_rs<A: RoundAlgorithm<u64> + Sync>(
    algo: &A,
    n: usize,
    t: usize,
    domain: &[u64],
    mode: ValidityMode,
) -> Verification<u64> {
    Verifier::new(algo)
        .n(n)
        .t(t)
        .domain(domain)
        .mode(mode)
        .run()
}

/// Exhaustive `RWS` sweep through the unified builder.
fn verify_rws<A: RoundAlgorithm<u64> + Sync>(
    algo: &A,
    n: usize,
    t: usize,
    domain: &[u64],
    mode: ValidityMode,
) -> Verification<u64> {
    Verifier::new(algo)
        .n(n)
        .t(t)
        .domain(domain)
        .mode(mode)
        .model(RoundModel::Rws)
        .run()
}

/// E1 — SDD is solvable in SS: the Φ+1+Δ receiver is correct for every
/// (Φ, Δ) and every crash point of the sender, under fair and random
/// legal schedules.
#[test]
fn e1_sdd_solvable_in_ss() {
    for (phi, delta) in [(1u64, 1u64), (1, 3), (3, 1), (2, 2), (4, 4), (8, 8)] {
        for input in [false, true] {
            for crash_after in [None, Some(0), Some(1), Some(2)] {
                for seed in 0..8u64 {
                    let automata: Vec<BoxedAutomaton<bool, bool>> = vec![
                        Box::new(SddSender::new(p(1), input)),
                        Box::new(SsSddReceiver::new(p(0), phi, delta)),
                    ];
                    let result = match crash_after {
                        None => {
                            let mut adv = RandomAdversary::new(2, 300, seed);
                            run(ModelKind::ss(phi, delta), automata, &mut adv, 10_000)
                        }
                        Some(k) => {
                            let mut adv = RandomAdversary::new(2, 300, seed).with_crash(p(0), k);
                            run(ModelKind::ss(phi, delta), automata, &mut adv, 10_000)
                        }
                    }
                    .expect("legal SS run");
                    let outcome = SddOutcome {
                        sender_input: input,
                        sender_initially_dead: step_count(&result.log, p(0)) == 0,
                        receiver_correct: result.pattern.is_correct(p(1)),
                        decision: result.outputs[1],
                    };
                    check_sdd(&outcome).unwrap_or_else(|e| {
                        panic!("Φ={phi} Δ={delta} input={input} crash={crash_after:?} seed={seed}: {e}")
                    });
                }
            }
        }
    }
}

/// E2 — SDD is unsolvable in SP: Theorem 3.1's run surgery defeats the
/// natural candidates, whatever their patience.
#[test]
fn e2_sdd_impossible_in_sp() {
    let report = refute(&WaitOrSuspect, 2_000);
    assert!(matches!(report.refutation, SddRefutation::Validity { .. }));
    for patience in [0, 3, 10, 17, 100, 200] {
        let report = refute(&PatientWait(patience), 10_000);
        assert!(matches!(report.refutation, SddRefutation::Validity { .. }));
    }
}

/// E3 — FloodSet solves uniform consensus in RS: exhaustive over all
/// binary configs and crash schedules, n=3 with t ∈ {1, 2} and n=4
/// with t=1; failure-free up to n=16, always in exactly t+1 rounds.
#[test]
fn e3_floodset_uniform_consensus_in_rs() {
    verify_rs(&FloodSet, 3, 1, &[0u64, 1], ValidityMode::Strong).expect_ok();
    verify_rs(&FloodSet, 3, 2, &[0u64, 1], ValidityMode::Strong).expect_ok();
    verify_rs(&FloodSet, 4, 1, &[0u64, 1], ValidityMode::Strong).expect_ok();
    for n in [4usize, 6, 8, 12, 16] {
        let t = n / 2;
        let config = InitialConfig::new((0..n as u64).collect());
        let out = run_rs(&FloodSet, &config, t, &CrashSchedule::none(n));
        check_uniform_consensus_strong(&out).unwrap();
        assert_eq!(out.latency_degree(), Some(t as u32 + 1), "n={n}");
    }
}

/// E4 — FloodSet admits disagreement in RWS: the checker finds
/// pending-message counterexamples already at t=1 (a crasher whose
/// round-1 flood was pending can leak fresh information in a final-
/// round partial send, too late for any relay), and of course at t=2.
#[test]
fn e4_floodset_disagrees_in_rws() {
    for t in [1usize, 2] {
        let v = verify_rws(&FloodSet, 3, t, &[0u64, 1], ValidityMode::Uniform);
        let cex = v.expect_violation();
        assert!(
            !cex.pending.is_empty(),
            "the t={t} violation needs pending messages"
        );
        assert!(matches!(
            cex.violation,
            ConsensusViolation::UniformAgreement { .. }
        ));
    }
}

/// E5 — FloodSetWS solves uniform consensus in RWS (companion paper
/// [7]), exhaustively: 2,936 runs at n=3, t=1.
#[test]
fn e5_floodset_ws_uniform_consensus_in_rws() {
    let runs = verify_rws(&FloodSetWs, 3, 1, &[0u64, 1], ValidityMode::Strong).expect_ok();
    assert_eq!(runs, 2_936);
    verify_rws(&FloodSetWs, 3, 2, &[0u64, 1], ValidityMode::Strong).expect_ok();
}

/// E6 — lat(C_OptFloodSet) = lat(C_OptFloodSetWS) = 1, and the gain is
/// exactly the unanimity fast path: Lat stays t+1.
#[test]
fn e6_c_opt_latency_degrees() {
    let mut rs = LatencyAggregator::new();
    explore_runs(&COptFloodSet, RoundModel::Rs, 3, 1, &[0u64, 1], |run| {
        rs.add(run)
    });
    assert_eq!(rs.lat(), Some(1));
    for v in [0u64, 1] {
        assert_eq!(rs.lat_for(&InitialConfig::uniform(3, v)), Some(1));
    }
    assert_eq!(rs.lat_for(&InitialConfig::new(vec![0, 1, 1])), Some(2));
    assert_eq!(rs.lat_max_over_configs(), Some(2));

    let mut rws = LatencyAggregator::new();
    explore_runs(&COptFloodSetWs, RoundModel::Rws, 3, 1, &[0u64, 1], |run| {
        rws.add(run)
    });
    assert_eq!(rws.lat(), Some(1));
    assert_eq!(rws.lat_max_over_configs(), Some(2));

    // And both variants are actually correct.
    verify_rs(&COptFloodSet, 3, 1, &[0u64, 1], ValidityMode::Strong).expect_ok();
    verify_rws(&COptFloodSetWs, 3, 1, &[0u64, 1], ValidityMode::Strong).expect_ok();
}

/// E7 — Lat(F_OptFloodSet) = Lat(F_OptFloodSetWS) = 1: every config
/// has a round-1 run (t initial crashes), contradicting the folklore
/// that minimal latency needs failure-free runs.
#[test]
fn e7_f_opt_latency_degrees() {
    let mut rs = LatencyAggregator::new();
    explore_runs(&FOptFloodSet, RoundModel::Rs, 3, 1, &[0u64, 1], |run| {
        rs.add(run)
    });
    assert_eq!(rs.lat_max_over_configs(), Some(1), "Lat(F_OptFloodSet) = 1");
    assert_eq!(
        rs.capital_lambda(),
        Some(2),
        "failure-free runs still take t+1"
    );

    let mut rws = LatencyAggregator::new();
    explore_runs(&FOptFloodSetWs, RoundModel::Rws, 3, 1, &[0u64, 1], |run| {
        rws.add(run)
    });
    assert_eq!(
        rws.lat_max_over_configs(),
        Some(1),
        "Lat(F_OptFloodSetWS) = 1"
    );

    verify_rs(&FOptFloodSet, 3, 1, &[0u64, 1], ValidityMode::Strong).expect_ok();
    verify_rws(&FOptFloodSetWs, 3, 1, &[0u64, 1], ValidityMode::Strong).expect_ok();
}

/// E8 — Theorem 5.2: A1 solves uniform consensus in RS with t = 1 and
/// Λ(A1) = 1, for n ∈ {2, 3, 4}.
#[test]
fn e8_a1_correct_with_lambda_1() {
    for n in [2usize, 3, 4] {
        verify_rs(&A1, n, 1, &[0u64, 1], ValidityMode::Strong).expect_ok();
        let mut agg = LatencyAggregator::new();
        explore_runs(&A1, RoundModel::Rs, n, 1, &[0u64, 1], |run| agg.add(run));
        assert_eq!(agg.capital_lambda(), Some(1), "Λ(A1) = 1 at n={n}");
    }
}

/// E9 — the RWS lower bound: every member of the round-1-deciding
/// family (which includes A1-alikes) is refuted in RWS, while the
/// RWS-correct algorithms all have Λ ≥ 2.
#[test]
fn e9_rws_lower_bound() {
    let candidates = all_round1_candidates(3);
    assert_eq!(candidates.len(), 100);
    for candidate in candidates {
        assert!(decides_round1_when_failure_free(&candidate, 3));
        assert!(
            refute_round1_candidate(&candidate, 3).is_some(),
            "{candidate} must admit an RWS violation"
        );
    }
    // Contrapositive: correct-in-RWS algorithms pay the extra round.
    let mut ws = LatencyAggregator::new();
    explore_runs(&FloodSetWs, RoundModel::Rws, 3, 1, &[0u64, 1], |run| {
        ws.add(run)
    });
    assert!(ws.capital_lambda().unwrap() >= 2);
    let mut c = LatencyAggregator::new();
    explore_runs(&COptFloodSetWs, RoundModel::Rws, 3, 1, &[0u64, 1], |run| {
        c.add(run)
    });
    assert!(c.capital_lambda().unwrap() >= 2);
    let mut f = LatencyAggregator::new();
    explore_runs(&FOptFloodSetWs, RoundModel::Rws, 3, 1, &[0u64, 1], |run| {
        f.add(run)
    });
    assert!(f.capital_lambda().unwrap() >= 2);
}

/// A1 in RWS: every failure-free run still decides at round 1 (that is
/// the efficiency premise the lower bound kills), every violation
/// requires `p1` to be faulty, and — a sharper finding from the model
/// checker — `p1`'s partial round-2 relay can even split the *correct*
/// processes, so A1-in-RWS fails plain consensus too, not merely its
/// uniform variant.
#[test]
fn a1_in_rws_anatomy() {
    let mut failure_free_latencies_ok = true;
    let mut correct_split_witnessed = false;
    let mut violation_without_p1_crash = false;
    explore_runs(&A1, RoundModel::Rws, 3, 1, &[0u64, 1], |run| {
        if run.schedule.fault_count() == 0 {
            failure_free_latencies_ok &= run.outcome.latency_degree() == Some(1);
        }
        let correct: Vec<u64> = run
            .outcome
            .iter()
            .filter(|(_, o)| o.is_correct())
            .filter_map(|(_, o)| o.decision.as_ref().map(|d| d.0))
            .collect();
        let split = correct.windows(2).any(|w| w[0] != w[1]);
        if split {
            correct_split_witnessed = true;
            if run.schedule.crash_of(p(0)).is_none() {
                violation_without_p1_crash = true;
            }
        }
    });
    assert!(failure_free_latencies_ok, "Λ(A1) = 1 also over RWS runs");
    assert!(
        correct_split_witnessed,
        "the partial-relay scenario must appear in the enumeration"
    );
    assert!(
        !violation_without_p1_crash,
        "all A1 anomalies stem from p1 failing"
    );
}

/// Sanity: FairAdversary SS runs of the SDD pair validate against the
/// independent SS trace validator.
#[test]
fn ss_runs_pass_independent_validation() {
    let (phi, delta) = (2, 2);
    let automata: Vec<BoxedAutomaton<bool, bool>> = vec![
        Box::new(SddSender::new(p(1), true)),
        Box::new(SsSddReceiver::new(p(0), phi, delta)),
    ];
    let mut adv = FairAdversary::new(2, 100);
    let result = run(ModelKind::ss(phi, delta), automata, &mut adv, 1_000).unwrap();
    ssp::sim::validate_ss(&result.log, phi, delta).unwrap();
    ssp::sim::validate_basic(&result.log).unwrap();
}
