//! The `Lat(A, f)` refinement (§5.2): maximal latency over runs with at
//! most `f` crashes, as a function of `f` — the measure whose minimum
//! over `f` is `Λ(A)`.
//!
//! Shapes pinned here:
//! * FloodSet is flat: `Lat(A, f) = t+1` for every `f`;
//! * EarlyDeciding matches the companion paper's bound:
//!   `Lat(A, f) = min(f+2, t+1)`;
//! * A1 (t = 1): `Lat(A, 0) = 1`, `Lat(A, 1) = 2`;
//! * F_OptFloodSet is *not monotone in luck*: its minimum-latency runs
//!   have the most crashes, yet `Lat(A, f)` (an at-most-f max) still
//!   grows with `f`;
//! * Chandra–Toueg under ◇S: every permanently suspected coordinator
//!   costs the run steps before it decides.

use ssp::algos::{CtMsg, CtProcess, EarlyDeciding, FOptFloodSet, FloodSet, A1};
use ssp::fd::FdHistory;
use ssp::lab::{explore_rs, LatencyAggregator};
use ssp::model::{ProcessId, Time};
use ssp::rounds::RoundAlgorithm;
use ssp::sim::{run, BoxedAutomaton, FairAdversary, ModelKind};

fn aggregate<A: RoundAlgorithm<u64>>(algo: &A, n: usize, t: usize) -> LatencyAggregator<u64> {
    let mut agg = LatencyAggregator::new();
    explore_rs(algo, n, t, &[0u64, 1], |run| agg.add(run));
    agg
}

#[test]
fn floodset_lat_f_is_flat_at_t_plus_1() {
    let agg = aggregate(&FloodSet, 3, 2);
    for f in 0..=2 {
        assert_eq!(agg.lat_at_most_faults(f), Some(3), "Lat(FloodSet, {f})");
    }
    assert_eq!(
        aggregate(&FloodSet, 3, 1).lat(),
        Some(2),
        "lat(FloodSet) = t+1"
    );
}

#[test]
fn early_deciding_lat_f_matches_min_f_plus_2_t_plus_1() {
    let agg = aggregate(&EarlyDeciding, 3, 2);
    assert_eq!(agg.lat_at_most_faults(0), Some(2), "min(0+2, 3)");
    assert_eq!(agg.lat_at_most_faults(1), Some(3), "min(1+2, 3)");
    assert_eq!(agg.lat_at_most_faults(2), Some(3), "min(2+2, 3) = t+1");
    assert_eq!(agg.capital_lambda(), Some(2));
}

#[test]
fn a1_lat_f_shape() {
    let agg = aggregate(&A1, 3, 1);
    assert_eq!(agg.lat_at_most_faults(0), Some(1), "Λ(A1) = 1");
    assert_eq!(agg.lat_at_most_faults(1), Some(2));
}

#[test]
fn lat_f_is_monotone_in_f_for_every_algorithm() {
    // Lat(A, f) ≤ Lat(A, f+1) by definition (at-most-f quantification);
    // the aggregator must honor it even for F_Opt, whose *fastest* runs
    // are the most faulty ones.
    let agg = aggregate(&FOptFloodSet, 3, 1);
    assert!(agg.lat_at_most_faults(0) <= agg.lat_at_most_faults(1));
    assert_eq!(agg.lat_at_most_faults(0), Some(2));
    assert_eq!(agg.lat_at_most_faults(1), Some(2));
    // Λ(A) = min_f Lat(A, f) = Lat(A, 0), as derived in §5.2.
    assert_eq!(agg.capital_lambda(), agg.lat_at_most_faults(0));
}

#[test]
fn max_faults_seen_matches_the_bound() {
    let agg = aggregate(&FloodSet, 3, 2);
    assert_eq!(agg.max_faults_seen(), Some(2));
}

/// Steps until every process of a failure-free `CtProcess` system
/// decides, when the first `suspected` coordinators are suspected by
/// everyone from time 0 on.
fn ct_steps_to_decide(n: usize, suspected: usize) -> usize {
    let automata: Vec<BoxedAutomaton<CtMsg<u64>, u64>> = (0..n)
        .map(|i| Box::new(CtProcess::new(ProcessId::new(i), n, i as u64)) as _)
        .collect();
    let mut history = FdHistory::new(n);
    for c in 0..suspected {
        for o in 0..n {
            history.suspect_from(ProcessId::new(o), ProcessId::new(c), Time::ZERO);
        }
    }
    let mut adv = FairAdversary::new(n, 200_000);
    let result = run(ModelKind::fd(history), automata, &mut adv, 400_000).expect("legal");
    assert!(
        result.outputs.iter().all(Option::is_some),
        "n={n}, {suspected} suspected: all must decide"
    );
    result.trace.len()
}

#[test]
fn ct_decision_cost_grows_with_suspected_coordinators() {
    for n in [3usize, 5, 9] {
        ct_steps_to_decide(n, 0);
    }
    let steps: Vec<usize> = (0..=2).map(|s| ct_steps_to_decide(5, s)).collect();
    assert!(
        steps.windows(2).all(|w| w[0] < w[1]),
        "each suspected coordinator must cost steps: {steps:?}"
    );
}
