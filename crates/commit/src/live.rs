//! Driving NBAC from *live* votes — the serving-path entry point.
//!
//! The [`workload`](crate::workload) module samples randomized
//! scenarios to *measure* the §3 commit-rate gap; this module is the
//! other direction: a caller that already holds real votes (e.g. a
//! sharded engine whose groups voted by deciding — or failing to
//! decide — a prepare batch) hands them to [`run_live_nbac`] and gets
//! back a typed [`CommitOutcome`] plus the spec-level
//! [`check_nbac`] audit of that very exchange.
//!
//! The vote exchange itself is a real protocol execution, not a table
//! lookup: [`VoteFlood`] under `RS` (attaining the SDD-boosted
//! non-triviality) or [`VoteFloodWs`] under `RWS` (classic
//! non-triviality; pending votes force aborts). Faults during the
//! exchange are scripted by a seed-deterministic [`NbacFaults`]:
//! at most one participant crashes mid-flood with a partial send set,
//! and under `RWS` the adversary may additionally withhold some of the
//! crash-round sends — exactly the shape that separates the two
//! models in §3.

use ssp_model::{InitialConfig, ProcessId, ProcessSet, Round};
use ssp_rounds::{run_rs, run_rws, CrashSchedule, PendingChoice, RoundCrash, RoundModel};

use crate::spec::{check_nbac, NbacViolation, NonTriviality};
use crate::vote_flood::{votes_all_survive, VoteFlood, VoteFloodWs};

/// The uniform decision of one atomic-commit exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Every vote was `Yes` and reached the deciders: apply.
    Commit,
    /// Some vote was `No`, lost, or withheld: discard, exactly never.
    Abort,
}

/// Seed-deterministic faults scripted onto one vote exchange.
#[derive(Debug, Clone)]
pub struct NbacFaults {
    /// Crash schedule of the exchange (at most one crash).
    pub schedule: CrashSchedule,
    /// Withheld crash-round sends (`RWS` adversary; empty under `RS`).
    pub pending: PendingChoice,
}

/// Splitmix64 finalizer — the workspace's standard seed mixer.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl NbacFaults {
    /// A failure-free exchange over `participants` processes.
    #[must_use]
    pub fn none(participants: usize) -> Self {
        NbacFaults {
            schedule: CrashSchedule::none(participants),
            pending: PendingChoice::none(),
        }
    }

    /// Derives the exchange's faults from a seed: with probability 1/4
    /// one participant crashes in round 1 after reaching a
    /// seed-chosen subset of its peers; under `RWS` each of those
    /// partial sends is withheld with probability 1/2. Deterministic
    /// per `(seed, participants, model)`.
    ///
    /// # Panics
    ///
    /// Panics if `participants < 2` — atomic commit across fewer than
    /// two owners is a single-group command, not a transaction.
    #[must_use]
    pub fn from_seed(seed: u64, participants: usize, model: RoundModel) -> Self {
        assert!(participants >= 2, "NBAC needs at least two participants");
        let mut faults = NbacFaults::none(participants);
        let r = mix(seed, 0x6bac_c035_11fe_c0de);
        if !r.is_multiple_of(4) {
            return faults;
        }
        let victim = ProcessId::new(((r >> 8) as usize) % participants);
        let mut sends_to = ProcessSet::empty();
        for d in 0..participants {
            if d != victim.index() && (r >> (16 + d)) & 1 == 1 {
                sends_to.insert(ProcessId::new(d));
            }
        }
        faults.schedule.crash(
            victim,
            RoundCrash {
                round: Round::FIRST,
                sends_to,
            },
        );
        if model == RoundModel::Rws {
            for d in sends_to.iter() {
                if (r >> (40 + d.index())) & 1 == 1 {
                    faults.pending.withhold(Round::FIRST, victim, d);
                }
            }
        }
        faults
    }
}

/// Everything one live vote exchange produced: the typed outcome plus
/// its own spec-level audit.
#[derive(Debug, Clone)]
pub struct LiveNbacRun {
    /// The uniform decision.
    pub outcome: CommitOutcome,
    /// Whether every vote reached a surviving participant (the
    /// SDD-boosted non-triviality premise, computed as ground truth
    /// from the scripted faults).
    pub votes_survived: bool,
    /// The `check_nbac` verdict of this exchange — `Some` is an audit
    /// failure the caller must surface.
    pub violation: Option<NbacViolation>,
}

/// Runs one non-blocking atomic commit exchange over live votes:
/// executes the vote-flooding protocol of the given model under the
/// scripted faults, extracts the uniform decision, and audits the run
/// against the NBAC specification ([`NonTriviality::SddBoosted`] under
/// `RS`, [`NonTriviality::Classic`] under `RWS`).
///
/// # Panics
///
/// Panics if `votes` has fewer than two entries, or if the scripted
/// faults are inconsistent with the model (never the case for
/// [`NbacFaults`]-constructed scripts).
#[must_use]
pub fn run_live_nbac(votes: &[bool], model: RoundModel, faults: &NbacFaults) -> LiveNbacRun {
    assert!(votes.len() >= 2, "NBAC needs at least two participants");
    let t = votes.len() - 1;
    #[allow(clippy::cast_possible_truncation)]
    let horizon = t as u32 + 1;
    let config = InitialConfig::new(votes.to_vec());
    let (out, mode) = match model {
        RoundModel::Rs => (
            run_rs(&VoteFlood, &config, t, &faults.schedule),
            NonTriviality::SddBoosted,
        ),
        RoundModel::Rws => (
            run_rws(&VoteFloodWs, &config, t, &faults.schedule, &faults.pending)
                .expect("NbacFaults withholds only crash-round sends"),
            NonTriviality::Classic,
        ),
    };
    let votes_survived = votes_all_survive(votes.len(), horizon, &faults.schedule, &faults.pending);
    let violation = check_nbac(&out, mode, votes_survived).err();
    let outcome = match out.iter().find_map(|(_, o)| o.decision.as_ref()) {
        Some(&(true, _)) => CommitOutcome::Commit,
        _ => CommitOutcome::Abort,
    };
    LiveNbacRun {
        outcome,
        votes_survived,
        violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_free_all_yes_commits_in_both_models() {
        for model in [RoundModel::Rs, RoundModel::Rws] {
            let run = run_live_nbac(&[true, true, true], model, &NbacFaults::none(3));
            assert_eq!(run.outcome, CommitOutcome::Commit);
            assert!(run.votes_survived);
            assert!(run.violation.is_none());
        }
    }

    #[test]
    fn one_no_vote_aborts_cleanly() {
        let run = run_live_nbac(&[true, false], RoundModel::Rs, &NbacFaults::none(2));
        assert_eq!(run.outcome, CommitOutcome::Abort);
        assert!(run.violation.is_none());
    }

    #[test]
    fn seeded_faults_are_deterministic_and_audit_clean() {
        for seed in 0..256u64 {
            for model in [RoundModel::Rs, RoundModel::Rws] {
                let a = NbacFaults::from_seed(seed, 3, model);
                let b = NbacFaults::from_seed(seed, 3, model);
                let ra = run_live_nbac(&[true, true, true], model, &a);
                let rb = run_live_nbac(&[true, true, true], model, &b);
                assert_eq!(ra.outcome, rb.outcome, "seed {seed}");
                assert!(
                    ra.violation.is_none(),
                    "seed {seed} {model:?}: {:?}",
                    ra.violation
                );
            }
        }
    }

    #[test]
    fn lost_vote_aborts_without_a_violation() {
        // The victim crashes before reaching anyone: its vote is lost,
        // so aborting is mandatory-compatible (premise fails).
        let mut faults = NbacFaults::none(3);
        faults.schedule.crash(
            ProcessId::new(0),
            RoundCrash {
                round: Round::FIRST,
                sends_to: ProcessSet::empty(),
            },
        );
        let run = run_live_nbac(&[true, true, true], RoundModel::Rs, &faults);
        assert_eq!(run.outcome, CommitOutcome::Abort);
        assert!(!run.votes_survived);
        assert!(run.violation.is_none());
    }

    #[test]
    fn rs_commits_where_rws_must_abort() {
        // The §3 gap, live: the crashed participant's vote got out to
        // one peer, but the RWS adversary withholds it.
        let mut rs = NbacFaults::none(3);
        rs.schedule.crash(
            ProcessId::new(0),
            RoundCrash {
                round: Round::FIRST,
                sends_to: ProcessSet::singleton(ProcessId::new(1)),
            },
        );
        let mut rws = rs.clone();
        rws.pending
            .withhold(Round::FIRST, ProcessId::new(0), ProcessId::new(1));

        let votes = [true, true, true];
        let in_rs = run_live_nbac(&votes, RoundModel::Rs, &rs);
        assert_eq!(in_rs.outcome, CommitOutcome::Commit);
        assert!(in_rs.violation.is_none());

        let in_rws = run_live_nbac(&votes, RoundModel::Rws, &rws);
        assert_eq!(in_rws.outcome, CommitOutcome::Abort);
        assert!(in_rws.violation.is_none());
    }
}
