//! The latency-degree functionals of §5.2, computed over enumerated
//! run spaces.
//!
//! For an algorithm `A` in a system `S` with at most `t` crashes:
//!
//! * `lat(A)   = min { |r| }` over all runs — rewards lucky runs;
//! * `lat(A,C) = min { |r| : r starts from C }` — per configuration;
//! * `Lat(A)   = max_C lat(A, C)` — no luck from special configs;
//! * `Lat(A,f) = max { |r| : r has at most f crashes }`;
//! * `Λ(A)     = min_f Lat(A, f) = Lat(A, 0)` — the maximal latency
//!   over failure-free runs.
//!
//! [`LatencyAggregator`] folds enumerated runs into all five, and
//! [`message_complexity_rs`] measures a single run's traffic through
//! the canonical event pipeline (a [`CountingObserver`] attached to
//! the round executor).

use std::collections::HashMap;

use ssp_model::{CountingObserver, EventCounts, InitialConfig, Value};
use ssp_rounds::RoundModel;

use crate::enumerate::EnumeratedRun;

/// Accumulates latency degrees across an enumerated run space.
#[derive(Debug, Clone, Default)]
pub struct LatencyAggregator<V> {
    /// min/max latency per initial configuration.
    per_config: HashMap<Vec<V>, (u32, u32)>,
    /// max latency per *exact* crash count.
    max_per_faults: HashMap<usize, u32>,
    /// Runs where some correct process never decided.
    pub nontermination: u64,
    /// Total runs folded.
    pub runs: u64,
}

impl<V: Value> LatencyAggregator<V> {
    /// Creates an empty aggregator.
    #[must_use]
    pub fn new() -> Self {
        LatencyAggregator {
            per_config: HashMap::new(),
            max_per_faults: HashMap::new(),
            nontermination: 0,
            runs: 0,
        }
    }

    /// Folds one enumerated run.
    pub fn add(&mut self, run: &EnumeratedRun<'_, V>) {
        self.add_weighted(run, 1);
    }

    /// Folds one run standing for `weight` symmetric runs (its orbit
    /// under the symmetry reduction of `crate::verifier`).
    ///
    /// Orbit members share the run's latency degree, fault count and
    /// (canonical) configuration class, so counting the representative
    /// `weight` times makes every functional here equal to the
    /// unreduced sweep's — except that per-configuration lookups key
    /// on the canonical representative.
    pub fn add_weighted(&mut self, run: &EnumeratedRun<'_, V>, weight: u64) {
        self.runs += weight;
        let Some(latency) = run.outcome.latency_degree() else {
            self.nontermination += weight;
            return;
        };
        let key = run.config.inputs().to_vec();
        let entry = self.per_config.entry(key).or_insert((u32::MAX, 0));
        entry.0 = entry.0.min(latency);
        entry.1 = entry.1.max(latency);
        let f = run.outcome.fault_count();
        let fmax = self.max_per_faults.entry(f).or_insert(0);
        *fmax = (*fmax).max(latency);
    }

    /// Merges another aggregator (e.g. a per-worker partial) into this
    /// one; equivalent to having folded all of its runs here.
    pub fn merge(&mut self, other: LatencyAggregator<V>) {
        self.runs += other.runs;
        self.nontermination += other.nontermination;
        for (key, (lo, hi)) in other.per_config {
            let entry = self.per_config.entry(key).or_insert((u32::MAX, 0));
            entry.0 = entry.0.min(lo);
            entry.1 = entry.1.max(hi);
        }
        for (f, m) in other.max_per_faults {
            let fmax = self.max_per_faults.entry(f).or_insert(0);
            *fmax = (*fmax).max(m);
        }
    }

    /// `lat(A)`: the minimum latency degree over all runs.
    #[must_use]
    pub fn lat(&self) -> Option<u32> {
        self.per_config.values().map(|&(lo, _)| lo).min()
    }

    /// `lat(A, C)` for a specific configuration.
    #[must_use]
    pub fn lat_for(&self, config: &InitialConfig<V>) -> Option<u32> {
        self.per_config.get(config.inputs()).map(|&(lo, _)| lo)
    }

    /// `Lat(A) = max_C lat(A, C)`.
    #[must_use]
    pub fn lat_max_over_configs(&self) -> Option<u32> {
        self.per_config.values().map(|&(lo, _)| lo).max()
    }

    /// `Lat(A, f)`: the maximum latency over runs with **at most** `f`
    /// crashes (the paper's `Run(A, S, f)`).
    #[must_use]
    pub fn lat_at_most_faults(&self, f: usize) -> Option<u32> {
        self.max_per_faults
            .iter()
            .filter(|&(&k, _)| k <= f)
            .map(|(_, &v)| v)
            .max()
    }

    /// `Λ(A) = min_f Lat(A, f) = Lat(A, 0)`: the maximal latency over
    /// failure-free runs.
    #[must_use]
    pub fn capital_lambda(&self) -> Option<u32> {
        self.lat_at_most_faults(0)
    }

    /// The largest exact fault count seen.
    #[must_use]
    pub fn max_faults_seen(&self) -> Option<usize> {
        self.max_per_faults.keys().copied().max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::explore_runs;
    use ssp_algos::{COptFloodSet, FOptFloodSet, FloodSet, A1};
    use ssp_model::InitialConfig;

    fn aggregate_rs<A: ssp_rounds::RoundAlgorithm<u64>>(
        algo: &A,
        n: usize,
        t: usize,
    ) -> LatencyAggregator<u64> {
        let mut agg = LatencyAggregator::new();
        explore_runs(algo, RoundModel::Rs, n, t, &[0u64, 1], |run| agg.add(run));
        agg
    }

    #[test]
    fn floodset_latency_is_always_t_plus_1() {
        let agg = aggregate_rs(&FloodSet, 3, 1);
        assert_eq!(agg.nontermination, 0, "FloodSet always terminates in RS");
        assert_eq!(agg.lat(), Some(2));
        assert_eq!(agg.lat_max_over_configs(), Some(2));
        assert_eq!(agg.capital_lambda(), Some(2));
        assert_eq!(agg.lat_at_most_faults(1), Some(2));
    }

    #[test]
    fn c_opt_has_lat_1_but_big_lambda() {
        // §5.2: lat(C_OptFloodSet) = 1 via unanimous configs, but the
        // per-config minimum is t+1 for mixed configs, so Lat = t+1.
        let agg = aggregate_rs(&COptFloodSet, 3, 1);
        assert_eq!(agg.lat(), Some(1));
        assert_eq!(
            agg.lat_for(&InitialConfig::uniform(3, 1u64)),
            Some(1),
            "unanimous config decides at round 1"
        );
        assert_eq!(agg.lat_max_over_configs(), Some(2), "Lat(C_Opt) = t+1");
        assert_eq!(agg.capital_lambda(), Some(2));
    }

    #[test]
    fn f_opt_reaches_lat_1_on_every_config_via_t_initial_crashes() {
        // §5.2: Lat(F_OptFloodSet) = 1 — for *every* configuration some
        // run (t initial crashes) decides at round 1.
        let agg = aggregate_rs(&FOptFloodSet, 3, 1);
        assert_eq!(agg.lat_max_over_configs(), Some(1), "Lat(F_Opt) = 1");
        // But the failure-free latency is still t+1:
        assert_eq!(agg.capital_lambda(), Some(2));
        // Lat(A, f) is monotone in f (at-most-f quantification).
        assert!(agg.lat_at_most_faults(0) <= agg.lat_at_most_faults(1));
    }

    #[test]
    fn a1_has_capital_lambda_1_in_rs() {
        // Theorem 5.2 / §5.3: Λ(A1) = 1 — every failure-free run
        // decides at round 1.
        let agg = aggregate_rs(&A1, 3, 1);
        assert_eq!(agg.nontermination, 0);
        assert_eq!(agg.capital_lambda(), Some(1), "Λ(A1) = 1");
        // With one crash, two rounds can be needed.
        assert_eq!(agg.lat_at_most_faults(1), Some(2));
    }

    #[test]
    fn rws_aggregation_works_too() {
        let mut agg = LatencyAggregator::new();
        explore_runs(
            &ssp_algos::FloodSetWs,
            RoundModel::Rws,
            3,
            1,
            &[0u64, 1],
            |run| agg.add(run),
        );
        assert_eq!(agg.nontermination, 0);
        assert_eq!(agg.capital_lambda(), Some(2));
    }
}

/// Searches the exhaustive `RS` space for a run realizing the
/// worst-case latency of `algo`, returning `(latency, schedule,
/// config)` of the first maximal run found.
///
/// This is `Lat(A, t)` *with a witness*: the adversary strategy that
/// actually forces the bound, useful for reports and regression tests.
#[must_use]
pub fn worst_case_rs<V, A>(
    algo: &A,
    n: usize,
    t: usize,
    domain: &[V],
) -> Option<(u32, ssp_rounds::CrashSchedule, InitialConfig<V>)>
where
    V: Value,
    A: ssp_rounds::RoundAlgorithm<V>,
{
    let mut worst: Option<(u32, ssp_rounds::CrashSchedule, InitialConfig<V>)> = None;
    crate::enumerate::explore_runs(algo, RoundModel::Rs, n, t, domain, |run| {
        if let Some(l) = run.outcome.latency_degree() {
            if worst.as_ref().is_none_or(|(best, _, _)| l > *best) {
                worst = Some((l, run.schedule.clone(), run.config.clone()));
            }
        }
    });
    worst
}

/// Measures one `RS` run's event totals through the canonical observer
/// pipeline: `delivers` is the run's message complexity as observed at
/// receivers, `closes` its round count.
///
/// This subsumes the bespoke per-run message counters that predated the
/// event IR — any executor that accepts an
/// [`Observer`](ssp_model::Observer) yields the same tally.
///
/// # Panics
///
/// Panics if `schedule` is inadmissible for `(n, t)`, as
/// [`run_rs`](ssp_rounds::run_rs) does.
#[must_use]
pub fn message_complexity_rs<V, A>(
    algo: &A,
    config: &InitialConfig<V>,
    t: usize,
    schedule: &ssp_rounds::CrashSchedule,
) -> EventCounts
where
    V: Value,
    A: ssp_rounds::RoundAlgorithm<V>,
{
    let mut counter = CountingObserver::new();
    let _ = ssp_rounds::run_rs_observed(algo, config, t, schedule, &mut counter)
        .unwrap_or_else(|e| panic!("{e}"));
    counter.counts()
}

#[cfg(test)]
mod message_complexity_tests {
    use super::*;
    use ssp_algos::FloodSet;
    use ssp_model::InitialConfig;
    use ssp_rounds::CrashSchedule;

    #[test]
    fn failure_free_floodset_delivers_n_squared_per_round() {
        let config = InitialConfig::new(vec![0u64, 1, 0]);
        let schedule = CrashSchedule::none(3);
        let counts = message_complexity_rs(&FloodSet, &config, 1, &schedule);
        // t+1 = 2 rounds, n² = 9 deliveries each (self included).
        assert_eq!(counts.delivers, 18);
        assert_eq!(counts.closes, 2);
        assert_eq!(counts.crashes, 0);
        assert_eq!(counts.decides, 3);
    }

    #[test]
    fn a_crash_strictly_reduces_traffic() {
        let config = InitialConfig::new(vec![0u64, 1, 0]);
        let clean = message_complexity_rs(&FloodSet, &config, 1, &CrashSchedule::none(3));
        let mut schedule = CrashSchedule::none(3);
        schedule.crash(
            ssp_model::ProcessId::new(0),
            ssp_rounds::RoundCrash {
                round: ssp_model::Round::new(1),
                sends_to: ssp_model::ProcessSet::empty(),
            },
        );
        let crashed = message_complexity_rs(&FloodSet, &config, 1, &schedule);
        assert!(crashed.delivers < clean.delivers);
        assert_eq!(crashed.crashes, 1);
    }
}

#[cfg(test)]
mod worst_case_tests {
    use super::*;
    use ssp_algos::{EarlyDeciding, FloodSet, A1};
    use ssp_rounds::run_rs;

    #[test]
    fn floodset_worst_case_is_t_plus_1_with_witness() {
        let (latency, schedule, config) =
            worst_case_rs(&FloodSet, 3, 2, &[0u64, 1]).expect("nonempty space");
        assert_eq!(latency, 3);
        // The witness replays to the same latency.
        let replay = run_rs(&FloodSet, &config, 2, &schedule);
        assert_eq!(replay.latency_degree(), Some(3));
    }

    #[test]
    fn a1_worst_case_is_2_and_requires_a_crash() {
        let (latency, schedule, _) = worst_case_rs(&A1, 3, 1, &[0u64, 1]).expect("nonempty space");
        assert_eq!(latency, 2);
        assert_eq!(schedule.fault_count(), 1, "failure-free runs decide at 1");
    }

    #[test]
    fn early_deciding_worst_case_matches_min_f_plus_2_t_plus_1() {
        let (latency, _, _) =
            worst_case_rs(&EarlyDeciding, 3, 2, &[0u64, 1]).expect("nonempty space");
        assert_eq!(latency, 3, "t crashes force the t+1 deadline");
    }
}
