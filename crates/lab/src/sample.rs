//! Statistical verification for run spaces too large to enumerate.
//!
//! Exhaustive checking ([`crate::checker`]) caps out around `n = 4`;
//! beyond that, `Verifier::sample(trials, seed)` draws random
//! configurations, crash schedules and pending choices from the same
//! distributions the commit workloads use, checks every sampled run
//! against the uniform consensus specification, and reports either a
//! clean bill over `trials` runs or the first concrete counterexample.
//! Deterministic per seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ssp_model::{InitialConfig, ProcessId, ProcessSet, Round, Value};
use ssp_rounds::{
    run_rs, run_rws, CrashSchedule, PendingChoice, RoundAlgorithm, RoundCrash, RoundModel,
};

use crate::checker::{Counterexample, ValidityMode};
use crate::metrics::LatencyAggregator;

/// Distribution parameters for scenario sampling.
#[derive(Debug, Clone, Copy)]
pub struct SampleSpace {
    /// Number of processes.
    pub n: usize,
    /// Fault bound.
    pub t: usize,
    /// Probability that each process is scheduled to crash (subject to
    /// the bound `t`).
    pub crash_prob: f64,
    /// Probability that each pendable message is withheld (`RWS` only).
    pub pending_prob: f64,
}

impl SampleSpace {
    /// A default adversarial mix: half the processes try to crash,
    /// half the pendable messages are withheld.
    #[must_use]
    pub fn adversarial(n: usize, t: usize) -> Self {
        SampleSpace {
            n,
            t,
            crash_prob: 0.5,
            pending_prob: 0.5,
        }
    }
}

/// Draws a crash schedule (rounds `1..=max_round`, arbitrary subsets).
pub fn sample_schedule<R: Rng>(space: &SampleSpace, max_round: u32, rng: &mut R) -> CrashSchedule {
    let mut schedule = CrashSchedule::none(space.n);
    let mut budget = space.t;
    for i in 0..space.n {
        if budget > 0 && rng.gen_bool(space.crash_prob) {
            schedule.crash(
                ProcessId::new(i),
                RoundCrash {
                    round: Round::new(rng.gen_range(1..=max_round)),
                    sends_to: ProcessSet::from_bits(rng.gen_range(0..(1u64 << space.n))),
                },
            );
            budget -= 1;
        }
    }
    schedule
}

/// Draws a pending choice valid for `schedule` under weak round
/// synchrony.
pub fn sample_pending<R: Rng>(
    space: &SampleSpace,
    schedule: &CrashSchedule,
    horizon: u32,
    rng: &mut R,
) -> PendingChoice {
    let mut pending = PendingChoice::none();
    for (r, sender, receiver) in schedule.pendable(horizon) {
        if rng.gen_bool(space.pending_prob) {
            pending.withhold(r, sender, receiver);
        }
    }
    pending
}

/// Outcome of a sampling sweep.
#[derive(Debug)]
pub struct SampleVerification<V> {
    /// Sampled runs checked.
    pub trials: u64,
    /// Latency statistics over the sampled runs.
    pub latency: LatencyAggregator<V>,
    /// The first violating run, if any (sampling stops there).
    pub counterexample: Option<Counterexample<V>>,
}

impl<V: Value> SampleVerification<V> {
    /// Panics with forensics if a violation was sampled.
    ///
    /// # Panics
    ///
    /// See above.
    pub fn expect_ok(&self) -> u64 {
        if let Some(cex) = &self.counterexample {
            panic!("sampled violation after {} trials:\n{cex}", self.trials);
        }
        self.trials
    }
}

pub(crate) fn sample_verify<V, A>(
    algo: &A,
    space: &SampleSpace,
    domain: &[V],
    trials: u64,
    seed: u64,
    mode: ValidityMode,
    model: RoundModel,
) -> SampleVerification<V>
where
    V: Value,
    A: RoundAlgorithm<V>,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = algo.round_horizon(space.n, space.t);
    let mut latency = LatencyAggregator::new();
    for trial in 0..trials {
        let inputs: Vec<V> = (0..space.n)
            .map(|_| domain[rng.gen_range(0..domain.len())].clone())
            .collect();
        let config = InitialConfig::new(inputs);
        let schedule = sample_schedule(space, horizon + 1, &mut rng);
        let (pending, outcome) = match model {
            RoundModel::Rs => (
                PendingChoice::none(),
                run_rs(algo, &config, space.t, &schedule),
            ),
            RoundModel::Rws => {
                let pending = sample_pending(space, &schedule, horizon, &mut rng);
                let outcome = run_rws(algo, &config, space.t, &schedule, &pending)
                    .expect("sampled pending choices are valid");
                (pending, outcome)
            }
        };
        let run = crate::enumerate::EnumeratedRun {
            config: &config,
            schedule: &schedule,
            pending: &pending,
            outcome,
        };
        latency.add(&run);
        if let Err(violation) = mode.check(&run.outcome) {
            return SampleVerification {
                trials: trial + 1,
                latency,
                counterexample: Some(Counterexample {
                    config: config.clone(),
                    schedule: schedule.clone(),
                    pending: pending.clone(),
                    outcome: run.outcome.clone(),
                    violation,
                }),
            };
        }
    }
    SampleVerification {
        trials,
        latency,
        counterexample: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_algos::{EarlyDeciding, EarlyDecidingWs, FloodSet, FloodSetWs};

    #[test]
    fn floodset_ws_clean_at_n5_t2() {
        let space = SampleSpace::adversarial(5, 2);
        let v = sample_verify(
            &FloodSetWs,
            &space,
            &[0u64, 1, 2],
            2_000,
            7,
            ValidityMode::Strong,
            RoundModel::Rws,
        );
        assert_eq!(v.expect_ok(), 2_000);
        assert_eq!(v.latency.capital_lambda(), Some(3), "Λ = t+1 at n=5");
    }

    #[test]
    fn floodset_violation_sampled_at_n5_t2_in_rws() {
        let space = SampleSpace {
            n: 5,
            t: 2,
            crash_prob: 0.6,
            pending_prob: 0.7,
        };
        let v = sample_verify(
            &FloodSet,
            &space,
            &[0u64, 1],
            20_000,
            11,
            ValidityMode::Uniform,
            RoundModel::Rws,
        );
        assert!(
            v.counterexample.is_some(),
            "20k adversarial samples should hit a FloodSet RWS violation"
        );
    }

    #[test]
    fn early_deciding_clean_at_n6_t3_in_rs() {
        let space = SampleSpace::adversarial(6, 3);
        let v = sample_verify(
            &EarlyDeciding,
            &space,
            &[0u64, 1, 2],
            3_000,
            13,
            ValidityMode::Strong,
            RoundModel::Rs,
        );
        v.expect_ok();
        assert_eq!(v.latency.capital_lambda(), Some(2), "failure-free f+2");
    }

    #[test]
    fn early_deciding_ws_clean_at_n5_t3_in_rws() {
        let space = SampleSpace::adversarial(5, 3);
        let v = sample_verify(
            &EarlyDecidingWs,
            &space,
            &[0u64, 1],
            3_000,
            17,
            ValidityMode::Strong,
            RoundModel::Rws,
        );
        v.expect_ok();
        assert_eq!(v.latency.capital_lambda(), Some(3), "failure-free f+3");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let space = SampleSpace::adversarial(4, 2);
        let a = sample_verify(
            &FloodSetWs,
            &space,
            &[0u64, 1],
            200,
            3,
            ValidityMode::Strong,
            RoundModel::Rws,
        );
        let b = sample_verify(
            &FloodSetWs,
            &space,
            &[0u64, 1],
            200,
            3,
            ValidityMode::Strong,
            RoundModel::Rws,
        );
        assert_eq!(a.trials, b.trials);
        assert_eq!(a.latency.runs, b.latency.runs);
    }
}
