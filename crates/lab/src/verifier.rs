//! The unified verification entry point: one builder for every sweep.
//!
//! [`Verifier`] subsumes the six historical entry points
//! (`verify_rs`, `verify_rws`, `verify_rs_parallel`,
//! `verify_rws_parallel`, `sample_verify_rs`, `sample_verify_rws`)
//! behind a single builder:
//!
//! ```
//! use ssp_algos::FloodSetWs;
//! use ssp_lab::{RoundModel, Symmetry, ValidityMode, Verifier};
//!
//! let verdict = Verifier::new(&FloodSetWs)
//!     .n(3)
//!     .t(1)
//!     .domain(&[0u64, 1])
//!     .mode(ValidityMode::Strong)
//!     .model(RoundModel::Rws)
//!     .threads(2)
//!     .symmetry(Symmetry::Full)
//!     .run();
//! verdict.expect_ok();
//! // Weighted run counts still cover the whole space:
//! assert!(verdict.represented > verdict.runs);
//! ```
//!
//! Two orthogonal accelerations compose freely:
//!
//! * **Symmetry reduction** ([`Symmetry`]): sweep only canonical orbit
//!   representatives under monotone value relabeling
//!   ([`Symmetry::Values`], sound for
//!   [`ValueSymmetric`](ssp_rounds::ValueSymmetric) algorithms) or
//!   additionally under process permutation ([`Symmetry::Full`], sound
//!   for [`SymmetricAlgorithm`](ssp_rounds::SymmetricAlgorithm)s). The
//!   builder enforces soundness at compile time: the `symmetry` setter
//!   is only available for marked algorithms. Every representative
//!   carries its exact orbit size, so [`Verification::represented`]
//!   and all latency functionals equal the unreduced sweep's.
//! * **Work stealing** (`threads`): the `(configuration class, crash
//!   schedule chunk)` work items feed a shared atomic cursor; idle
//!   workers pull the next chunk instead of idling behind a static
//!   shard. A violation broadcasts its position so other workers skip
//!   everything after it (and keep scanning everything before it),
//!   making the reported counterexample the lexicographically least
//!   *visited* one regardless of thread interleaving.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use ssp_model::{
    canonical_full_classes, canonical_value_classes, config::enumerate_configs, CountingObserver,
    EventCounts, InitialConfig, Value,
};
use ssp_rounds::{
    run_rs, run_rs_observed, run_rws, run_rws_observed, PendingChoice, RoundAlgorithm,
    SymmetricAlgorithm, ValueSymmetric,
};

use crate::checker::{Counterexample, ValidityMode, Verification};
use crate::enumerate::{crash_schedules, pending_choices};
use crate::metrics::LatencyAggregator;
use crate::sample::SampleSpace;
use crate::symmetry::{identity_only, pending_orbit, schedule_orbit, stabilizer};

/// Which round model to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundModel {
    /// Round synchrony (§4.1): crash schedules only.
    Rs,
    /// Weak round synchrony (§4.2): crash schedules × pending choices.
    Rws,
}

/// How aggressively to quotient the run space by symmetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symmetry {
    /// No reduction: visit every run (the historical behaviour).
    Off,
    /// Quotient initial configurations by monotone value relabeling.
    /// Sound for [`ValueSymmetric`](ssp_rounds::ValueSymmetric)
    /// algorithms.
    Values,
    /// Additionally quotient crash schedules and pending choices by
    /// process permutations fixing the configuration. Sound for
    /// [`SymmetricAlgorithm`](ssp_rounds::SymmetricAlgorithm)s.
    Full,
}

impl Symmetry {
    /// The recommended setting for a fully symmetric algorithm:
    /// [`Symmetry::Full`] for spaces small enough to canonicalize
    /// (`n ≤ 8`), [`Symmetry::Off`] beyond.
    #[must_use]
    pub fn auto(n: usize) -> Self {
        if n <= 8 {
            Symmetry::Full
        } else {
            Symmetry::Off
        }
    }
}

/// One configuration class of the sweep: the canonical representative,
/// its orbit size, and its stabilizer subgroup `H` (the process
/// permutations fixing the representative's inputs).
type ConfigClass<V> = (InitialConfig<V>, u64, Vec<Vec<usize>>);

/// Sampling plan for spaces too large to enumerate (subsumes the
/// historical `sample_verify_rs` / `sample_verify_rws`).
#[derive(Debug, Clone, Copy)]
struct SamplePlan {
    trials: u64,
    seed: u64,
}

/// Builder for a verification sweep. See the [module docs](self) for
/// an end-to-end example.
///
/// Defaults: `n = 3`, `t = 1`, `mode = Uniform`, `model = Rs`,
/// `threads = 1`, `symmetry = Off`, exhaustive (no sampling), latency
/// statistics off. `domain` has no default and must be provided.
#[derive(Debug)]
pub struct Verifier<'a, V, A> {
    algo: &'a A,
    n: usize,
    t: usize,
    domain: Option<&'a [V]>,
    mode: ValidityMode,
    model: RoundModel,
    threads: usize,
    symmetry: Symmetry,
    collect_latency: bool,
    count_events: bool,
    sample: Option<SamplePlan>,
    sample_space: Option<SampleSpace>,
}

impl<'a, V, A> Verifier<'a, V, A>
where
    V: Value,
    A: RoundAlgorithm<V>,
{
    /// Starts a sweep of `algo` with the default settings.
    #[must_use]
    pub fn new(algo: &'a A) -> Self {
        Verifier {
            algo,
            n: 3,
            t: 1,
            domain: None,
            mode: ValidityMode::Uniform,
            model: RoundModel::Rs,
            threads: 1,
            symmetry: Symmetry::Off,
            collect_latency: false,
            count_events: false,
            sample: None,
            sample_space: None,
        }
    }

    /// Number of processes.
    #[must_use]
    pub fn n(mut self, n: usize) -> Self {
        self.n = n;
        self
    }

    /// Fault bound.
    #[must_use]
    pub fn t(mut self, t: usize) -> Self {
        self.t = t;
        self
    }

    /// Input value domain (required).
    #[must_use]
    pub fn domain(mut self, domain: &'a [V]) -> Self {
        self.domain = Some(domain);
        self
    }

    /// Validity flavour to check (default [`ValidityMode::Uniform`]).
    #[must_use]
    pub fn mode(mut self, mode: ValidityMode) -> Self {
        self.mode = mode;
        self
    }

    /// Round model to sweep (default [`RoundModel::Rs`]).
    #[must_use]
    pub fn model(mut self, model: RoundModel) -> Self {
        self.model = model;
        self
    }

    /// Worker threads for the exhaustive sweep (default 1).
    ///
    /// # Panics
    ///
    /// `run` panics if 0.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables the symmetry reduction. Only available for algorithms
    /// marked [`SymmetricAlgorithm`](ssp_rounds::SymmetricAlgorithm) —
    /// the marker is the soundness proof obligation; see
    /// [`symmetry_values`](Self::symmetry_values) for algorithms that
    /// are only value-symmetric.
    #[must_use]
    pub fn symmetry(mut self, symmetry: Symmetry) -> Self
    where
        A: SymmetricAlgorithm<V>,
    {
        self.symmetry = symmetry;
        self
    }

    /// Enables the value-relabeling reduction only (initial
    /// configurations quotiented by monotone relabeling; schedules and
    /// pending choices swept in full). Sound for any
    /// [`ValueSymmetric`](ssp_rounds::ValueSymmetric) algorithm — in
    /// particular `A1`, which is value- but not process-symmetric.
    #[must_use]
    pub fn symmetry_values(mut self) -> Self
    where
        A: ValueSymmetric<V>,
    {
        self.symmetry = Symmetry::Values;
        self
    }

    /// Also fold every visited run into a [`LatencyAggregator`]
    /// (returned in [`Verification::latency`]). Orbit weights keep the
    /// `lat`/`Lat`/`Λ` functionals exact under symmetry reduction.
    #[must_use]
    pub fn collect_latency(mut self) -> Self {
        self.collect_latency = true;
        self
    }

    /// Also tally canonical run-log events over every *visited* run
    /// with a [`CountingObserver`] (returned in
    /// [`Verification::events`]). `delivers` is the aggregate message
    /// complexity at receivers. Counts are raw — one per visited run,
    /// not orbit-weighted — and only collected by exhaustive sweeps.
    #[must_use]
    pub fn count_events(mut self) -> Self {
        self.count_events = true;
        self
    }

    /// Switches from exhaustive enumeration to checking `trials`
    /// random runs (deterministic per `seed`), as the historical
    /// `sample_verify_*` functions did. Symmetry settings are ignored;
    /// latency statistics are always collected.
    #[must_use]
    pub fn sample(mut self, trials: u64, seed: u64) -> Self {
        self.sample = Some(SamplePlan { trials, seed });
        self
    }

    /// Overrides the sampling distribution (default
    /// [`SampleSpace::adversarial`] for the configured `n`, `t`).
    #[must_use]
    pub fn sample_space(mut self, space: SampleSpace) -> Self {
        self.sample_space = Some(space);
        self
    }

    /// Runs the sweep.
    ///
    /// # Panics
    ///
    /// Panics if no domain was provided, if `threads == 0`, or if a
    /// worker thread panics.
    #[must_use]
    pub fn run(self) -> Verification<V>
    where
        V: Sync,
        A: Sync,
    {
        let domain = self.domain.expect("Verifier requires a domain(..)");
        assert!(self.threads > 0, "at least one worker required");
        if let Some(plan) = self.sample {
            return self.run_sampled(domain, plan);
        }
        self.run_exhaustive(domain)
    }

    fn run_sampled(&self, domain: &[V], plan: SamplePlan) -> Verification<V> {
        let space = self
            .sample_space
            .unwrap_or_else(|| SampleSpace::adversarial(self.n, self.t));
        let sampled = crate::sample::sample_verify(
            self.algo,
            &space,
            domain,
            plan.trials,
            plan.seed,
            self.mode,
            self.model == RoundModel::Rws,
        );
        Verification {
            runs: sampled.trials,
            represented: sampled.trials,
            latency: Some(sampled.latency),
            events: None,
            counterexample: sampled.counterexample,
        }
    }

    fn run_exhaustive(&self, domain: &[V]) -> Verification<V>
    where
        V: Sync,
        A: Sync,
    {
        let n = self.n;
        let horizon = self.algo.round_horizon(n, self.t);
        let schedules = crash_schedules(n, self.t, horizon + 1);

        // One entry per configuration class: (representative, orbit
        // size, stabilizer H of the representative).
        let classes: Vec<ConfigClass<V>> = match self.symmetry {
            Symmetry::Off => enumerate_configs(n, domain)
                .map(|c| (c, 1, identity_only(n)))
                .collect(),
            Symmetry::Values => canonical_value_classes(n, domain)
                .into_iter()
                .map(|(c, w)| (c, w, identity_only(n)))
                .collect(),
            Symmetry::Full => canonical_full_classes(n, domain)
                .into_iter()
                .map(|(c, w)| {
                    let h = stabilizer(c.inputs());
                    (c, w, h)
                })
                .collect(),
        };

        // Work items: (class, schedule chunk). Chunks small enough to
        // keep every worker busy near the end of the sweep.
        let chunk = schedules.len().div_ceil(self.threads * 16).max(1);
        let mut items: Vec<(usize, usize, usize)> = Vec::new();
        for class in 0..classes.len() {
            let mut start = 0;
            while start < schedules.len() {
                let end = (start + chunk).min(schedules.len());
                items.push((class, start, end));
                start = end;
            }
        }
        assert!(
            classes.len() < (1 << 16) && schedules.len() < (1 << 24),
            "run space too large to index for counterexample ordering"
        );

        let cursor = AtomicUsize::new(0);
        // Packed (class, schedule, pending) position of the least
        // violation found so far; u64::MAX = none. Workers skip work
        // strictly after it and keep scanning work before it.
        let best_key = AtomicU64::new(u64::MAX);
        let best: Mutex<Option<(u64, Counterexample<V>)>> = Mutex::new(None);

        let (schedules, classes, items) = (&schedules, &classes, &items);
        let (best_ref, best_key_ref) = (&best, &best_key);
        let cursor = &cursor;
        let per_worker: Vec<WorkerTally<V>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|_| {
                    scope.spawn(move || {
                        self.worker(
                            domain,
                            horizon,
                            schedules,
                            classes,
                            items,
                            cursor,
                            best_key_ref,
                            best_ref,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("verification worker panicked"))
                .collect()
        });

        let mut runs = 0;
        let mut represented = 0;
        let mut latency: Option<LatencyAggregator<V>> = None;
        let mut events: Option<EventCounts> = None;
        for (r, w, agg, counts) in per_worker {
            runs += r;
            represented += w;
            match (&mut latency, agg) {
                (Some(total), Some(part)) => total.merge(part),
                (slot @ None, Some(part)) => *slot = Some(part),
                _ => {}
            }
            match (&mut events, counts) {
                (Some(total), Some(part)) => total.merge(part),
                (slot @ None, Some(part)) => *slot = Some(part),
                _ => {}
            }
        }
        Verification {
            runs,
            represented,
            latency,
            events,
            counterexample: best.into_inner().expect("mutex poisoned").map(|(_, c)| c),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn worker(
        &self,
        _domain: &[V],
        horizon: u32,
        schedules: &[ssp_rounds::CrashSchedule],
        classes: &[ConfigClass<V>],
        items: &[(usize, usize, usize)],
        cursor: &AtomicUsize,
        best_key: &AtomicU64,
        best: &Mutex<Option<(u64, Counterexample<V>)>>,
    ) -> WorkerTally<V> {
        let mut runs = 0u64;
        let mut represented = 0u64;
        let mut latency = self.collect_latency.then(LatencyAggregator::new);
        let mut counter = self.count_events.then(CountingObserver::new);
        let empty_pendings = [PendingChoice::none()];
        loop {
            let item = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&(class, sched_start, sched_end)) = items.get(item) else {
                break;
            };
            // Everything in this item sits at or after (class,
            // sched_start, 0); skip it wholesale once a violation
            // strictly before it is known.
            if pack(class, sched_start, 0) > best_key.load(Ordering::Acquire) {
                continue;
            }
            let (config, class_weight, group) = &classes[class];
            for (sched_idx, schedule) in schedules
                .iter()
                .enumerate()
                .take(sched_end)
                .skip(sched_start)
            {
                if pack(class, sched_idx, 0) > best_key.load(Ordering::Acquire) {
                    break;
                }
                let Some((sched_weight, sched_stab)) = schedule_orbit(schedule, group) else {
                    continue; // counted by its canonical orbit member
                };
                let pendings: Vec<PendingChoice>;
                let pendings: &[PendingChoice] = match self.model {
                    RoundModel::Rs => &empty_pendings,
                    RoundModel::Rws => {
                        pendings = pending_choices(schedule, horizon);
                        &pendings
                    }
                };
                for (pending_idx, pending) in pendings.iter().enumerate() {
                    let key = pack(class, sched_idx, pending_idx);
                    if key > best_key.load(Ordering::Acquire) {
                        break;
                    }
                    let Some(pending_weight) = pending_orbit(pending, &sched_stab) else {
                        continue;
                    };
                    // Two monomorphized paths: the default one keeps
                    // the NullObserver zero-cost hot loop; the counting
                    // one only pays for integer bumps.
                    let outcome = match (&mut counter, self.model) {
                        (None, RoundModel::Rs) => run_rs(self.algo, config, self.t, schedule),
                        (None, RoundModel::Rws) => {
                            run_rws(self.algo, config, self.t, schedule, pending)
                                .expect("enumerated pending choices are valid")
                        }
                        (Some(obs), RoundModel::Rs) => {
                            run_rs_observed(self.algo, config, self.t, schedule, obs)
                                .unwrap_or_else(|e| panic!("{e}"))
                        }
                        (Some(obs), RoundModel::Rws) => {
                            run_rws_observed(self.algo, config, self.t, schedule, pending, obs)
                                .expect("enumerated pending choices are valid")
                        }
                    };
                    runs += 1;
                    let weight = class_weight * sched_weight * pending_weight;
                    represented += weight;
                    if let Some(agg) = &mut latency {
                        agg.add_weighted(
                            &crate::enumerate::EnumeratedRun {
                                config,
                                schedule,
                                pending,
                                outcome: outcome.clone(),
                            },
                            weight,
                        );
                    }
                    if let Err(violation) = self.mode.check(&outcome) {
                        // fetch_min is not stabilized everywhere; CAS
                        // loop keeps the minimum without contention in
                        // the common (rare-violation) case.
                        let mut seen = best_key.load(Ordering::Acquire);
                        while key < seen {
                            match best_key.compare_exchange(
                                seen,
                                key,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            ) {
                                Ok(_) => break,
                                Err(now) => seen = now,
                            }
                        }
                        let mut slot = best.lock().expect("mutex poisoned");
                        if slot.as_ref().is_none_or(|(k, _)| key < *k) {
                            *slot = Some((
                                key,
                                Counterexample {
                                    config: config.clone(),
                                    schedule: schedule.clone(),
                                    pending: pending.clone(),
                                    outcome,
                                    violation,
                                },
                            ));
                        }
                        drop(slot);
                        break; // later pendings of this schedule are all after `key`
                    }
                }
            }
        }
        (runs, represented, latency, counter.map(|c| c.counts()))
    }
}

/// Per-worker totals: visited runs, represented runs, latency
/// statistics (if requested), event counts (if requested).
type WorkerTally<V> = (u64, u64, Option<LatencyAggregator<V>>, Option<EventCounts>);

/// Packs an enumeration position into a totally ordered u64:
/// class (16 bits) · schedule (24 bits) · pending (24 bits).
fn pack(class: usize, sched: usize, pending: usize) -> u64 {
    debug_assert!(class < (1 << 16) && sched < (1 << 24) && pending < (1 << 24));
    ((class as u64) << 48) | ((sched as u64) << 24) | pending as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_algos::{FloodSet, FloodSetWs, A1};

    #[test]
    fn defaults_reproduce_serial_rs_sweep() {
        let v = Verifier::new(&FloodSet)
            .domain(&[0u64, 1])
            .mode(ValidityMode::Strong)
            .run();
        v.expect_ok();
        assert_eq!(v.runs, v.represented, "no symmetry ⇒ no weighting");
        assert!(v.latency.is_none());
    }

    #[test]
    fn domain_is_required() {
        let result = std::panic::catch_unwind(|| {
            let _: Verification<u64> = Verifier::new(&FloodSet).run();
        });
        assert!(result.is_err());
    }

    #[test]
    fn full_symmetry_preserves_verdict_and_coverage() {
        let full = Verifier::new(&FloodSetWs)
            .n(3)
            .t(1)
            .domain(&[0u64, 1])
            .mode(ValidityMode::Strong)
            .model(RoundModel::Rws)
            .run();
        let reduced = Verifier::new(&FloodSetWs)
            .n(3)
            .t(1)
            .domain(&[0u64, 1])
            .mode(ValidityMode::Strong)
            .model(RoundModel::Rws)
            .symmetry(Symmetry::Full)
            .run();
        full.expect_ok();
        reduced.expect_ok();
        assert_eq!(
            reduced.represented, full.runs,
            "orbit weights cover the space"
        );
        assert!(
            reduced.runs * 2 < full.runs,
            "symmetry should cut visited runs at least in half \
             ({} of {})",
            reduced.runs,
            full.runs
        );
    }

    #[test]
    fn value_symmetry_for_a1_preserves_the_violation() {
        // A1 is only value-symmetric; the builder still reduces configs.
        let full = Verifier::new(&A1)
            .n(3)
            .t(1)
            .domain(&[0u64, 1])
            .model(RoundModel::Rws)
            .run();
        let reduced = Verifier::new(&A1)
            .n(3)
            .t(1)
            .domain(&[0u64, 1])
            .model(RoundModel::Rws)
            .symmetry_values()
            .run();
        assert!(!full.is_ok() && !reduced.is_ok());
        // The reduced sweep visits canonically-relabeled configurations,
        // so its counterexample is the full one up to a value bijection:
        // same violated clause, same schedule shape — possibly swapped
        // decision values.
        let (f, r) = (full.expect_violation(), reduced.expect_violation());
        assert!(
            matches!(
                (&f.violation, &r.violation),
                (
                    ssp_model::spec::ConsensusViolation::UniformAgreement { .. },
                    ssp_model::spec::ConsensusViolation::UniformAgreement { .. }
                )
            ),
            "both sweeps refute uniform agreement:\nfull: {}\nreduced: {}",
            f.violation,
            r.violation
        );
        assert_eq!(f.schedule, r.schedule, "same least crash schedule");
    }

    #[test]
    fn work_stealing_agrees_with_serial() {
        for threads in [1, 4] {
            let v = Verifier::new(&FloodSetWs)
                .n(3)
                .t(1)
                .domain(&[0u64, 1])
                .mode(ValidityMode::Strong)
                .model(RoundModel::Rws)
                .threads(threads)
                .run();
            v.expect_ok();
            assert_eq!(v.represented, v.runs);
        }
    }

    #[test]
    fn counterexample_is_deterministic_across_thread_counts() {
        let reference = Verifier::new(&FloodSet)
            .n(3)
            .t(2)
            .domain(&[0u64, 1])
            .model(RoundModel::Rws)
            .run();
        let reference = reference.expect_violation();
        for threads in [2, 4, 8] {
            let v = Verifier::new(&FloodSet)
                .n(3)
                .t(2)
                .domain(&[0u64, 1])
                .model(RoundModel::Rws)
                .threads(threads)
                .run();
            let cex = v.expect_violation();
            assert_eq!(cex.config, reference.config);
            assert_eq!(cex.schedule, reference.schedule);
            assert_eq!(cex.pending, reference.pending);
        }
    }

    #[test]
    fn latency_functionals_are_exact_under_symmetry() {
        let full = Verifier::new(&FloodSet)
            .n(3)
            .t(1)
            .domain(&[0u64, 1])
            .mode(ValidityMode::Strong)
            .collect_latency()
            .run();
        let reduced = Verifier::new(&FloodSet)
            .n(3)
            .t(1)
            .domain(&[0u64, 1])
            .mode(ValidityMode::Strong)
            .symmetry(Symmetry::Full)
            .collect_latency()
            .run();
        let (full, reduced) = (full.latency.unwrap(), reduced.latency.unwrap());
        assert_eq!(full.runs, reduced.runs, "weighted run totals agree");
        assert_eq!(full.lat(), reduced.lat());
        assert_eq!(full.capital_lambda(), reduced.capital_lambda());
        assert_eq!(full.lat_at_most_faults(1), reduced.lat_at_most_faults(1));
    }

    #[test]
    fn count_events_reports_message_complexity_without_changing_verdicts() {
        let plain = Verifier::new(&FloodSet)
            .n(3)
            .t(1)
            .domain(&[0u64, 1])
            .mode(ValidityMode::Strong)
            .run();
        let counted = Verifier::new(&FloodSet)
            .n(3)
            .t(1)
            .domain(&[0u64, 1])
            .mode(ValidityMode::Strong)
            .count_events()
            .run();
        plain.expect_ok();
        counted.expect_ok();
        assert_eq!(plain.runs, counted.runs, "counting is observational");
        assert!(plain.events.is_none());
        let events = counted.events.expect("count_events() fills the tally");
        // Every RS run of FloodSet closes exactly t+1 = 2 rounds and
        // delivers several messages per round, so the totals are large.
        assert!(events.delivers > counted.runs, "{events:?}");
        assert_eq!(events.closes, counted.runs * 2, "t+1 rounds per run");
        assert_eq!(events.withholds, 0, "RS withholds nothing");
        assert_eq!(events.aborts, 0);
    }

    #[test]
    fn count_events_composes_with_threads_and_symmetry() {
        let serial = Verifier::new(&FloodSetWs)
            .n(3)
            .t(1)
            .domain(&[0u64, 1])
            .model(RoundModel::Rws)
            .count_events()
            .run();
        let stolen = Verifier::new(&FloodSetWs)
            .n(3)
            .t(1)
            .domain(&[0u64, 1])
            .model(RoundModel::Rws)
            .threads(4)
            .symmetry(Symmetry::Full)
            .count_events()
            .run();
        let (a, b) = (serial.events.unwrap(), stolen.events.unwrap());
        assert!(b.delivers > 0);
        // Symmetry visits fewer runs, so raw counts shrink with them.
        assert!(b.delivers < a.delivers);
        assert!(b.closes < a.closes);
    }

    #[test]
    fn sampling_mode_matches_historical_behaviour() {
        let v = Verifier::new(&FloodSetWs)
            .n(5)
            .t(2)
            .domain(&[0u64, 1, 2])
            .mode(ValidityMode::Strong)
            .model(RoundModel::Rws)
            .sample(500, 7)
            .run();
        v.expect_ok();
        assert_eq!(v.runs, 500);
        assert!(v.latency.is_some());
    }

    #[test]
    fn auto_symmetry_picks_full_for_small_n() {
        assert_eq!(Symmetry::auto(4), Symmetry::Full);
        assert_eq!(Symmetry::auto(9), Symmetry::Off);
    }
}
