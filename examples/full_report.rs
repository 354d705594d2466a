//! Regenerates the complete paper-vs-measured report (EXPERIMENTS.md's
//! numbers) in one run. Release mode recommended:
//!
//! ```sh
//! cargo run --release --example full_report
//! ```

use ssp::algos::{
    COptFloodSet, COptFloodSetWs, EarlyDeciding, EarlyDecidingWs, FOptFloodSet, FOptFloodSetWs,
    FloodSet, FloodSetWs, A1,
};
use ssp::commit::{commit_rate_experiment, CommitWorkload};
use ssp::fd::classify;
use ssp::lab::impossibility::candidates::{PatientWait, WaitOrSuspect};
use ssp::lab::report::Table;
use ssp::lab::{
    all_round1_candidates, explore_runs, refute, refute_round1_candidate, run_adaptive_experiment,
    run_heartbeat_experiment, LatencyAggregator, RoundModel, SddRefutation, Symmetry, ValidityMode,
    Verification, Verifier,
};
use ssp::model::ProcessId;
use ssp::rounds::{cumulative_round_budget, RoundAlgorithm};

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

fn banner(s: &str) {
    println!("\n{}\n{s}\n{}", "=".repeat(s.len()), "=".repeat(s.len()));
}

fn main() {
    banner("E1/E2 — SDD: solvable in SS, refuted in SP (Theorem 3.1)");
    let report = refute(&WaitOrSuspect, 10_000);
    println!("{report}");
    let report = refute(&PatientWait(100), 100_000);
    assert!(matches!(report.refutation, SddRefutation::Validity { .. }));
    println!("(patience-100 variant: refuted identically)");

    banner("E3/E4/E5 — FloodSet family, exhaustive verification");
    let mut table = Table::new(vec!["algorithm", "model", "(n,t)", "runs", "verdict"]);
    let mut add = |name: &str, model: &str, nt: (usize, usize), v: &ssp::lab::Verification<u64>| {
        table.row(vec![
            name.into(),
            model.into(),
            format!("({},{})", nt.0, nt.1),
            v.runs.to_string(),
            match &v.counterexample {
                None => "OK (all runs)".into(),
                Some(c) => format!("VIOLATION: {}", c.violation),
            },
        ]);
    };
    add(
        "FloodSet",
        "RS",
        (3, 2),
        &verify_rs(&FloodSet, 3, 2, &[0, 1], ValidityMode::Strong),
    );
    add(
        "FloodSet",
        "RWS",
        (3, 1),
        &verify_rws(&FloodSet, 3, 1, &[0, 1], ValidityMode::Uniform),
    );
    add(
        "FloodSetWS",
        "RWS",
        (3, 2),
        &verify_rws(&FloodSetWs, 3, 2, &[0, 1], ValidityMode::Strong),
    );
    add(
        "A1",
        "RS",
        (3, 1),
        &verify_rs(&A1, 3, 1, &[0, 1], ValidityMode::Strong),
    );
    add(
        "A1",
        "RWS",
        (3, 1),
        &verify_rws(&A1, 3, 1, &[0, 1], ValidityMode::Uniform),
    );
    add(
        "EarlyDeciding",
        "RS",
        (3, 2),
        &verify_rs(&EarlyDeciding, 3, 2, &[0, 1], ValidityMode::Strong),
    );
    add(
        "EarlyDecidingWS",
        "RWS",
        (3, 2),
        &verify_rws(&EarlyDecidingWs, 3, 2, &[0, 1], ValidityMode::Strong),
    );
    println!("{table}");

    // The same FloodSetWS space once more, quotiented by symmetry: the
    // verdict and represented coverage are identical, the work is not.
    let sym = Verifier::new(&FloodSetWs)
        .n(3)
        .t(2)
        .domain(&[0u64, 1])
        .mode(ValidityMode::Strong)
        .model(RoundModel::Rws)
        .threads(4)
        .symmetry(Symmetry::Full)
        .run();
    sym.expect_ok();
    println!(
        "symmetry-reduced FloodSetWS RWS (3,2): {} canonical runs stand for {} total",
        sym.runs, sym.represented
    );

    banner("E6–E8 — latency degrees (exhaustive, n=3, t=1, binary inputs)");
    let mut table = Table::new(vec!["algorithm", "model", "lat", "Lat", "Λ"]);
    let fmt = |v: Option<u32>| v.map_or("-".into(), |x| x.to_string());
    macro_rules! lat_row {
        ($algo:expr, rs) => {{
            let mut agg = LatencyAggregator::new();
            explore_runs(&$algo, RoundModel::Rs, 3, 1, &[0u64, 1], |run| agg.add(run));
            table.row(vec![
                RoundAlgorithm::<u64>::name(&$algo).into(),
                "RS".into(),
                fmt(agg.lat()),
                fmt(agg.lat_max_over_configs()),
                fmt(agg.capital_lambda()),
            ]);
        }};
        ($algo:expr, rws) => {{
            let mut agg = LatencyAggregator::new();
            explore_runs(&$algo, RoundModel::Rws, 3, 1, &[0u64, 1], |run| {
                agg.add(run)
            });
            table.row(vec![
                RoundAlgorithm::<u64>::name(&$algo).into(),
                "RWS".into(),
                fmt(agg.lat()),
                fmt(agg.lat_max_over_configs()),
                fmt(agg.capital_lambda()),
            ]);
        }};
    }
    lat_row!(FloodSet, rs);
    lat_row!(FloodSetWs, rws);
    lat_row!(COptFloodSet, rs);
    lat_row!(COptFloodSetWs, rws);
    lat_row!(FOptFloodSet, rs);
    lat_row!(FOptFloodSetWs, rws);
    lat_row!(A1, rs);
    lat_row!(EarlyDeciding, rs);
    lat_row!(EarlyDecidingWs, rws);
    println!("{table}");
    println!("paper checkpoints: lat(C_Opt*)=1, Lat(F_Opt*)=1, Λ(A1)=1, Λ ≥ 2 for all RWS rows.");

    banner("E9 — the RWS lower bound: the round-1-deciding family");
    let candidates = all_round1_candidates(3);
    let refuted = candidates
        .iter()
        .filter(|c| refute_round1_candidate(c, 3).is_some())
        .count();
    println!(
        "{refuted}/{} candidates refuted in RWS (all of them).",
        candidates.len()
    );

    banner("E10 — commit-rate gap (all-Yes votes, adversarial crashes)");
    let mut table = Table::new(vec!["n", "t", "crash-prob", "RS rate", "RWS rate", "gap"]);
    for (n, t, cp) in [(3, 1, 0.5), (4, 2, 0.5), (5, 2, 0.8)] {
        let r = commit_rate_experiment(&CommitWorkload::all_yes(n, t, cp), 2_000, 0xC0FFEE);
        table.row(vec![
            n.to_string(),
            t.to_string(),
            format!("{cp:.1}"),
            format!("{:.3}", r.rs_rate()),
            format!("{:.3}", r.rws_rate()),
            r.gap_runs.to_string(),
        ]);
    }
    println!("{table}");

    banner("E11 — RS-on-SS emulation budget K_r (n=3, Φ=Δ=1)");
    let ks: Vec<String> = (1..=5)
        .map(|r| cumulative_round_budget(1, 1, 3, r).to_string())
        .collect();
    println!("K_1..K_5 = {}", ks.join(", "));

    banner("E13/E15 — timeouts: P in SS, ◇P in DLS partial synchrony");
    let exp = run_heartbeat_experiment(3, 1, 1, &[None, Some(5), None], 1_000);
    println!(
        "SS heartbeats ({}) classify as: {}",
        exp.pattern,
        classify(&exp.pattern, &exp.history, exp.horizon)
    );
    let exp = run_adaptive_experiment(3, 1, 1, 120, ProcessId::new(0), 4, None, 3_000);
    println!(
        "DLS adaptive timeouts ({} retractions) classify as: {}",
        exp.retractions,
        classify(&exp.pattern, &exp.history, exp.horizon)
    );

    println!("\nDone. Cross-reference EXPERIMENTS.md for the full narrative.");
}
