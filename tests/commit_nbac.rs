//! E10 — atomic commit, exhaustively and statistically.
//!
//! Exhaustive sweeps verify that the vote-flooding protocols satisfy
//! the non-blocking atomic commit specification in their respective
//! models; the randomized experiment confirms the §3 efficiency claim:
//! the synchronous side reaches Commit in a strict superset of the
//! scenarios.

use ssp::commit::{
    check_nbac, commit_rate_experiment, votes_all_survive, CommitWorkload, NonTriviality,
    VoteFlood, VoteFloodWs,
};
use ssp::lab::{explore_runs, RoundModel};
use ssp::model::InitialConfig;
use ssp::rounds::{run_rs, PendingChoice, RoundAlgorithm};

/// VoteFlood in RS satisfies NBAC with the SDD-boosted non-triviality,
/// over every binary vote vector and crash schedule (n=3, t ∈ {1,2}).
#[test]
fn vote_flood_rs_exhaustive() {
    for t in [1usize, 2] {
        let horizon = RoundAlgorithm::<bool>::round_horizon(&VoteFlood, 3, t);
        let mut runs = 0u64;
        explore_runs(&VoteFlood, RoundModel::Rs, 3, t, &[false, true], |run| {
            runs += 1;
            let survived = votes_all_survive(3, horizon, run.schedule, &PendingChoice::none());
            check_nbac(&run.outcome, NonTriviality::SddBoosted, survived).unwrap_or_else(|e| {
                panic!("t={t}: {e}\nschedule {}\n{}", run.schedule, run.outcome)
            });
        });
        assert!(runs >= 584);
    }
}

/// VoteFloodWS in RWS satisfies NBAC with classic non-triviality over
/// every pending choice.
#[test]
fn vote_flood_ws_rws_exhaustive() {
    for t in [1usize, 2] {
        let mut runs = 0u64;
        explore_runs(&VoteFloodWs, RoundModel::Rws, 3, t, &[false, true], |run| {
            runs += 1;
            check_nbac(&run.outcome, NonTriviality::Classic, false).unwrap_or_else(|e| {
                panic!("t={t}: {e}\nschedule {}\n{}", run.schedule, run.outcome)
            });
        });
        assert!(runs >= 2_936);
    }
}

/// The plain RWS protocol (no halt) would violate uniform commit
/// agreement — the halt set is load-bearing here exactly as in
/// FloodSetWS.
#[test]
fn vote_flood_without_halt_breaks_in_rws() {
    let mut violation = None;
    explore_runs(&VoteFlood, RoundModel::Rws, 3, 2, &[false, true], |run| {
        if violation.is_none() {
            if let Err(e) = check_nbac(&run.outcome, NonTriviality::Classic, false) {
                violation = Some(e);
            }
        }
    });
    assert!(
        matches!(
            violation,
            Some(ssp::commit::NbacViolation::Agreement { .. })
        ),
        "expected an agreement violation, got {violation:?}"
    );
}

/// RS commits strictly more often than RWS on identical adversarial
/// scenarios, and the gap is exactly the pending-vote runs — at every
/// crash rate, with a gap once crashes are common.
#[test]
fn commit_rate_gap_exists_and_is_consistent() {
    let workload = CommitWorkload::all_yes(4, 2, 0.6);
    let report = commit_rate_experiment(&workload, 1_500, 99);
    assert_eq!(report.trials, 1_500);
    assert!(report.rs_commits >= report.rws_commits);
    assert!(report.gap_runs > 0, "{report:?}");
    assert_eq!(report.gap_runs, report.rs_commits - report.rws_commits);
    assert!(report.rs_rate() > 0.8, "{report:?}");
    for crash_prob in [0.2, 0.5, 0.8] {
        let report = commit_rate_experiment(&CommitWorkload::all_yes(4, 2, crash_prob), 500, 7);
        assert!(report.rs_commits >= report.rws_commits, "{report:?}");
        assert_eq!(report.gap_runs, report.rs_commits - report.rws_commits);
        assert!(crash_prob < 0.3 || report.gap_runs > 0, "{report:?}");
    }
}

/// §3's boosted guarantee, pointwise: all-Yes votes plus a mid-round-1
/// crash that reaches at least one process still commits in RS.
#[test]
fn sdd_boost_commits_despite_crash() {
    use ssp::model::{ProcessId, ProcessSet, Round};
    use ssp::rounds::{CrashSchedule, RoundCrash};
    let config = InitialConfig::new(vec![true; 5]);
    let mut schedule = CrashSchedule::none(5);
    schedule.crash(
        ProcessId::new(2),
        RoundCrash {
            round: Round::FIRST,
            sends_to: ProcessSet::singleton(ProcessId::new(4)),
        },
    );
    let out = run_rs(&VoteFlood, &config, 2, &schedule);
    for (_, o) in out.iter() {
        if o.is_correct() {
            assert!(o.decision.as_ref().unwrap().0, "must commit");
        }
    }
}
