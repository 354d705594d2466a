//! Randomized commit workloads: the E10 commit-rate experiment.
//!
//! Generates random vote vectors, crash schedules and (for `RWS`)
//! pending choices; runs [`VoteFlood`] in `RS` and [`VoteFloodWs`] in
//! `RWS` on identical scenarios; and reports how often each side
//! reaches the Commit decision. The `RS` side commits in every all-Yes
//! run whose votes survive (SDD-boosted non-triviality); the `RWS`
//! side additionally aborts whenever the adversary made a vote
//! pending — the efficiency gap the paper's §3 promises.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ssp_lab::sample::{sample_pending, sample_schedule, SampleSpace};
use ssp_model::InitialConfig;
use ssp_rounds::{run_rs, run_rws, CrashSchedule, PendingChoice};

use crate::spec::{check_nbac, NonTriviality};
use crate::vote_flood::{votes_all_survive, VoteFlood, VoteFloodWs};

/// Parameters of a randomized commit workload.
#[derive(Debug, Clone, Copy)]
pub struct CommitWorkload {
    /// Number of processes.
    pub n: usize,
    /// Fault bound.
    pub t: usize,
    /// Probability that a given process votes `Yes`.
    pub yes_prob: f64,
    /// Probability that a given process is scheduled to crash
    /// (subject to the bound `t`).
    pub crash_prob: f64,
    /// Probability that each pendable message is withheld (RWS side).
    pub pending_prob: f64,
}

impl CommitWorkload {
    /// An all-Yes workload, the regime where the §3 gap shows.
    #[must_use]
    pub fn all_yes(n: usize, t: usize, crash_prob: f64) -> Self {
        CommitWorkload {
            n,
            t,
            yes_prob: 1.0,
            crash_prob,
            pending_prob: 0.5,
        }
    }
}

/// One generated scenario.
#[derive(Debug, Clone)]
pub struct CommitScenario {
    /// The votes.
    pub votes: Vec<bool>,
    /// The crash plan.
    pub schedule: CrashSchedule,
    /// The pending choice applied on the `RWS` side.
    pub pending: PendingChoice,
}

/// Draws a random scenario: the votes, then a crash schedule and a
/// pending choice from `ssp-lab`'s samplers (crash rounds up to
/// `horizon + 1`, Lemma 4.1's window for the withheld sends).
#[must_use]
pub fn sample_scenario<R: Rng>(workload: &CommitWorkload, rng: &mut R) -> CommitScenario {
    let space = SampleSpace {
        n: workload.n,
        t: workload.t,
        crash_prob: workload.crash_prob,
        pending_prob: workload.pending_prob,
    };
    let horizon = workload.t as u32 + 1;
    let votes: Vec<bool> = (0..workload.n)
        .map(|_| rng.gen_bool(workload.yes_prob))
        .collect();
    let schedule = sample_schedule(&space, horizon + 1, rng);
    let pending = sample_pending(&space, &schedule, horizon, rng);
    CommitScenario {
        votes,
        schedule,
        pending,
    }
}

/// Aggregate result of a commit-rate experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitRateReport {
    /// Scenarios run.
    pub trials: u64,
    /// Scenarios where every process voted `Yes`.
    pub all_yes_trials: u64,
    /// Commits decided by the `RS` protocol.
    pub rs_commits: u64,
    /// Commits decided by the `RWS` protocol.
    pub rws_commits: u64,
    /// Scenarios where `RS` committed but `RWS` aborted — the paper's
    /// efficiency gap, realized.
    pub gap_runs: u64,
}

impl CommitRateReport {
    /// `RS` commit rate over all trials.
    #[must_use]
    pub fn rs_rate(&self) -> f64 {
        self.rs_commits as f64 / self.trials.max(1) as f64
    }

    /// `RWS` commit rate over all trials.
    #[must_use]
    pub fn rws_rate(&self) -> f64 {
        self.rws_commits as f64 / self.trials.max(1) as f64
    }
}

/// Runs `trials` random scenarios and counts commit decisions on both
/// sides, validating each run against the commit specification
/// (panicking on any violation — this doubles as a randomized soundness
/// test of the protocols).
///
/// # Panics
///
/// Panics if either protocol violates its specification on a sampled
/// scenario.
#[must_use]
pub fn commit_rate_experiment(
    workload: &CommitWorkload,
    trials: u64,
    seed: u64,
) -> CommitRateReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut report = CommitRateReport::default();
    let horizon = workload.t as u32 + 1;
    for _ in 0..trials {
        let scenario = sample_scenario(workload, &mut rng);
        let config = InitialConfig::new(scenario.votes.clone());
        report.trials += 1;
        if scenario.votes.iter().all(|v| *v) {
            report.all_yes_trials += 1;
        }

        // RS side: no pending messages exist.
        let rs_out = run_rs(&VoteFlood, &config, workload.t, &scenario.schedule);
        let rs_survived = votes_all_survive(
            workload.n,
            horizon,
            &scenario.schedule,
            &PendingChoice::none(),
        );
        check_nbac(&rs_out, NonTriviality::SddBoosted, rs_survived)
            .unwrap_or_else(|e| panic!("RS commit violated: {e}\n{rs_out}"));
        let rs_committed = rs_out
            .iter()
            .any(|(_, o)| matches!(o.decision, Some((true, _))));

        // RWS side: the adversary's pending choice applies.
        let rws_out = run_rws(
            &VoteFloodWs,
            &config,
            workload.t,
            &scenario.schedule,
            &scenario.pending,
        )
        .expect("sampled pending choices are valid");
        check_nbac(&rws_out, NonTriviality::Classic, false)
            .unwrap_or_else(|e| panic!("RWS commit violated: {e}\n{rws_out}"));
        let rws_committed = rws_out
            .iter()
            .any(|(_, o)| matches!(o.decision, Some((true, _))));

        report.rs_commits += u64::from(rs_committed);
        report.rws_commits += u64::from(rws_committed);
        report.gap_runs += u64::from(rs_committed && !rws_committed);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_is_deterministic_per_seed() {
        let w = CommitWorkload::all_yes(3, 1, 0.5);
        let a = commit_rate_experiment(&w, 200, 11);
        let b = commit_rate_experiment(&w, 200, 11);
        assert_eq!(a, b);
        assert_eq!(
            a,
            CommitRateReport {
                trials: 200,
                all_yes_trials: 200,
                rs_commits: 187,
                rws_commits: 154,
                gap_runs: 33,
            }
        );
    }

    #[test]
    fn rs_commits_at_least_as_often_as_rws() {
        for seed in [1, 2, 3] {
            let w = CommitWorkload::all_yes(3, 1, 0.6);
            let r = commit_rate_experiment(&w, 300, seed);
            assert!(r.rs_commits >= r.rws_commits, "{r:?}");
            assert_eq!(r.gap_runs, r.rs_commits - r.rws_commits, "{r:?}");
        }
    }

    #[test]
    fn gap_is_nonzero_under_heavy_pending() {
        let w = CommitWorkload {
            n: 3,
            t: 1,
            yes_prob: 1.0,
            crash_prob: 0.9,
            pending_prob: 1.0,
        };
        let r = commit_rate_experiment(&w, 300, 42);
        assert!(r.gap_runs > 0, "expected a visible commit-rate gap: {r:?}");
    }

    #[test]
    fn failure_free_all_yes_always_commits_on_both_sides() {
        let w = CommitWorkload {
            n: 4,
            t: 2,
            yes_prob: 1.0,
            crash_prob: 0.0,
            pending_prob: 0.0,
        };
        let r = commit_rate_experiment(&w, 50, 5);
        assert_eq!(r.rs_commits, 50);
        assert_eq!(r.rws_commits, 50);
        assert_eq!(r.gap_runs, 0);
    }

    #[test]
    fn no_votes_never_commit() {
        let w = CommitWorkload {
            n: 3,
            t: 1,
            yes_prob: 0.0,
            crash_prob: 0.3,
            pending_prob: 0.5,
        };
        let r = commit_rate_experiment(&w, 100, 9);
        assert_eq!(r.rs_commits, 0);
        assert_eq!(r.rws_commits, 0);
    }
}
