//! Round-level failure schedules: who crashes when, which of their
//! last-round messages get out, and — in `RWS` — which sent messages
//! are withheld as *pending*.
//!
//! These are the adversary's choices in the round-based models. The
//! `RS` executor consumes a [`CrashSchedule`]; the `RWS` executor
//! additionally consumes a [`PendingChoice`], validated against the
//! weak round synchrony property of §4.2 / Lemma 4.1.

use core::fmt;

use serde::{Deserialize, Serialize};

use ssp_model::{AdversaryRecord, CrashRecord, ProcessId, ProcessSet, Round};

/// A process's crash within a round-based run: it crashes *during*
/// round `round`, after sending its round messages only to `sends_to`
/// (receiving nothing and not applying `trans` that round).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RoundCrash {
    /// The round during which the process crashes.
    pub round: Round,
    /// The destinations that still receive its final round's message.
    pub sends_to: ProcessSet,
}

/// The crash plan of a whole run.
///
/// # Examples
///
/// ```
/// use ssp_rounds::{CrashSchedule, RoundCrash};
/// use ssp_model::{ProcessId, ProcessSet, Round};
///
/// let mut s = CrashSchedule::none(3);
/// s.crash(ProcessId::new(0), RoundCrash {
///     round: Round::FIRST,
///     sends_to: ProcessSet::singleton(ProcessId::new(1)),
/// });
/// assert_eq!(s.fault_count(), 1);
/// assert!(s.is_alive_through(ProcessId::new(1), Round::new(5)));
/// assert!(!s.is_alive_through(ProcessId::new(0), Round::FIRST));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CrashSchedule {
    crashes: Vec<Option<RoundCrash>>,
}

impl CrashSchedule {
    /// The failure-free schedule for `n` processes.
    #[must_use]
    pub fn none(n: usize) -> Self {
        CrashSchedule {
            crashes: vec![None; n],
        }
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.crashes.len()
    }

    /// Schedules `p`'s crash.
    pub fn crash(&mut self, p: ProcessId, crash: RoundCrash) -> &mut Self {
        self.crashes[p.index()] = Some(crash);
        self
    }

    /// `p`'s crash, if scheduled.
    #[must_use]
    pub fn crash_of(&self, p: ProcessId) -> Option<RoundCrash> {
        self.crashes[p.index()]
    }

    /// Number of scheduled crashes.
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.crashes.iter().flatten().count()
    }

    /// Whether `p` completes round `r` (i.e. does not crash in a round
    /// `≤ r`).
    #[must_use]
    pub fn is_alive_through(&self, p: ProcessId, r: Round) -> bool {
        match self.crashes[p.index()] {
            None => true,
            Some(c) => r < c.round,
        }
    }

    /// Whether `p` participates in round `r`'s send phase (alive into
    /// round `r`: either it completes it or it crashes during it).
    #[must_use]
    pub fn sends_in(&self, p: ProcessId, r: Round) -> bool {
        match self.crashes[p.index()] {
            None => true,
            Some(c) => r <= c.round,
        }
    }

    /// The schedule relabeled by the process permutation `perm`, where
    /// `perm[i]` is the new index of the process previously at index
    /// `i`. Crash rounds move with their process and `sends_to` sets
    /// are remapped, so the permuted schedule describes the same
    /// failure pattern acting on the renamed processes.
    ///
    /// # Panics
    ///
    /// Panics if `perm.len() != self.n()` or `perm` is not a
    /// permutation of `0..n`.
    #[must_use]
    pub fn permuted(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.n(), "permutation length mismatch");
        let mut crashes = vec![None; self.n()];
        for (i, c) in self.crashes.iter().enumerate() {
            assert!(
                crashes[perm[i]].is_none() || c.is_none(),
                "not a permutation"
            );
            crashes[perm[i]] = c.map(|c| RoundCrash {
                round: c.round,
                sends_to: c
                    .sends_to
                    .iter()
                    .map(|q| ProcessId::new(perm[q.index()]))
                    .collect(),
            });
        }
        CrashSchedule { crashes }
    }

    /// Whether `p`'s round-`r` message to `dst` is actually emitted.
    #[must_use]
    pub fn emits(&self, p: ProcessId, r: Round, dst: ProcessId) -> bool {
        match self.crashes[p.index()] {
            None => true,
            Some(c) => {
                if r < c.round {
                    true
                } else if r == c.round {
                    c.sends_to.contains(dst)
                } else {
                    false
                }
            }
        }
    }
}

/// Flattens a `(schedule, pending)` adversary into its serializable
/// [`AdversaryRecord`] wire form (see `ssp_model::adversary`).
#[must_use]
pub fn to_record(schedule: &CrashSchedule, pending: &PendingChoice) -> AdversaryRecord {
    let crashes = (0..schedule.n())
        .filter_map(|i| {
            let p = ProcessId::new(i);
            schedule.crash_of(p).map(|c| CrashRecord {
                process: p,
                round: c.round,
                sends_to: c.sends_to,
            })
        })
        .collect();
    AdversaryRecord {
        n: schedule.n(),
        crashes,
        withheld: pending.triples().to_vec(),
    }
    .canonical()
}

/// Rebuilds the `(schedule, pending)` adversary a record describes —
/// the inverse of [`to_record`]. The record's indices are trusted to
/// be in range (parsing via `AdversaryRecord::from_json` enforces it).
#[must_use]
pub fn from_record(record: &AdversaryRecord) -> (CrashSchedule, PendingChoice) {
    let mut schedule = CrashSchedule::none(record.n);
    for c in &record.crashes {
        schedule.crash(
            c.process,
            RoundCrash {
                round: c.round,
                sends_to: c.sends_to,
            },
        );
    }
    let mut pending = PendingChoice::none();
    for &(round, src, dst) in &record.withheld {
        pending.withhold(round, src, dst);
    }
    (schedule, pending)
}

impl fmt::Display for CrashSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "crashes[")?;
        let mut first = true;
        for (i, c) in self.crashes.iter().enumerate() {
            if let Some(c) = c {
                if !first {
                    write!(f, ", ")?;
                }
                write!(
                    f,
                    "{}↓@{} sends→{}",
                    ProcessId::new(i),
                    c.round.get(),
                    c.sends_to
                )?;
                first = false;
            }
        }
        if first {
            write!(f, "none")?;
        }
        write!(f, "]")
    }
}

/// The `RWS` adversary's pending-message choice: a set of
/// `(round, sender, receiver)` triples whose (sent!) message is
/// withheld from the receiver.
///
/// The triples are kept sorted, so equal choices always have equal
/// representations and the derived `Ord` is a total order on the
/// choice itself (used by the symmetry reduction to pick canonical
/// orbit representatives).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct PendingChoice {
    withheld: Vec<(Round, ProcessId, ProcessId)>,
}

impl PendingChoice {
    /// No pending messages — under this choice `RWS` behaves like `RS`.
    #[must_use]
    pub fn none() -> Self {
        PendingChoice::default()
    }

    /// Withholds `sender`'s round-`round` message to `receiver`.
    pub fn withhold(&mut self, round: Round, sender: ProcessId, receiver: ProcessId) -> &mut Self {
        let triple = (round, sender, receiver);
        if let Err(pos) = self.withheld.binary_search(&triple) {
            self.withheld.insert(pos, triple);
        }
        self
    }

    /// The choice relabeled by the process permutation `perm`, where
    /// `perm[i]` is the new index of the process previously at index
    /// `i` (matching [`CrashSchedule::permuted`]).
    #[must_use]
    pub fn permuted(&self, perm: &[usize]) -> Self {
        let mut out = PendingChoice::none();
        for &(round, sender, receiver) in &self.withheld {
            out.withhold(
                round,
                ProcessId::new(perm[sender.index()]),
                ProcessId::new(perm[receiver.index()]),
            );
        }
        out
    }

    /// Withholds `sender`'s round-`round` messages to everyone.
    pub fn withhold_all(&mut self, round: Round, sender: ProcessId, n: usize) -> &mut Self {
        for i in 0..n {
            self.withhold(round, sender, ProcessId::new(i));
        }
        self
    }

    /// Whether the triple is withheld.
    #[must_use]
    pub fn is_withheld(&self, round: Round, sender: ProcessId, receiver: ProcessId) -> bool {
        self.withheld.contains(&(round, sender, receiver))
    }

    /// All withheld triples.
    #[must_use]
    pub fn triples(&self) -> &[(Round, ProcessId, ProcessId)] {
        &self.withheld
    }

    /// Number of withheld messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.withheld.len()
    }

    /// Whether no message is withheld.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.withheld.is_empty()
    }
}

/// Why a [`PendingChoice`] is invalid for a given [`CrashSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingError {
    /// The withheld message is never sent in the first place (the
    /// sender crashed too early or omitted this destination).
    NeverSent {
        /// The withheld round.
        round: Round,
        /// The sender.
        sender: ProcessId,
        /// The receiver.
        receiver: ProcessId,
    },
    /// Weak round synchrony (Lemma 4.1) forbids it: a round-`r` message
    /// may be pending only if its sender crashes by the end of round
    /// `r + 1`.
    SenderOutlivesBound {
        /// The withheld round.
        round: Round,
        /// The sender, which survives past round `round + 1`.
        sender: ProcessId,
    },
    /// A process cannot withhold its own message to itself.
    SelfPending {
        /// The process.
        process: ProcessId,
    },
}

impl fmt::Display for PendingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PendingError::NeverSent {
                round,
                sender,
                receiver,
            } => write!(
                f,
                "pending {sender}→{receiver} at {round}: message is never sent"
            ),
            PendingError::SenderOutlivesBound { round, sender } => write!(
                f,
                "pending from {sender} at {round}: weak round synchrony requires the sender to crash by the end of round {}",
                round.get() + 1
            ),
            PendingError::SelfPending { process } => {
                write!(f, "{process} cannot withhold its own message to itself")
            }
        }
    }
}

impl std::error::Error for PendingError {}

impl CrashSchedule {
    /// Lemma 4.1's window: whether weak round synchrony lets a
    /// round-`r` message from `sender` be pending, i.e. the sender
    /// crashes by the end of round `r + 1`.
    fn may_withhold(&self, sender: ProcessId, r: Round) -> bool {
        self.crash_of(sender).is_some_and(|c| c.round <= r.next())
    }

    /// Every individually withholdable `(round, sender, receiver)`
    /// triple within rounds `1..=horizon`: emitted non-self messages
    /// inside [Lemma 4.1's window](validate_pending). Ordered by
    /// sender, then round, then receiver.
    #[must_use]
    pub fn pendable(&self, horizon: u32) -> Vec<(Round, ProcessId, ProcessId)> {
        let procs = || (0..self.n()).map(ProcessId::new);
        let mut out = Vec::new();
        for sender in procs() {
            for r in (1..=horizon).map(Round::new) {
                if !self.may_withhold(sender, r) {
                    continue;
                }
                for receiver in procs() {
                    if receiver != sender && self.emits(sender, r, receiver) {
                        out.push((r, sender, receiver));
                    }
                }
            }
        }
        out
    }
}

/// Validates a pending choice against the weak round synchrony
/// property: every withheld round-`r` message was actually sent, is not
/// a self-message, and its sender crashes by the end of round `r + 1`.
///
/// # Errors
///
/// Returns the first offending triple.
pub fn validate_pending(
    schedule: &CrashSchedule,
    pending: &PendingChoice,
) -> Result<(), PendingError> {
    for &(round, sender, receiver) in pending.triples() {
        if sender == receiver {
            return Err(PendingError::SelfPending { process: sender });
        }
        if !schedule.emits(sender, round, receiver) {
            return Err(PendingError::NeverSent {
                round,
                sender,
                receiver,
            });
        }
        if !schedule.may_withhold(sender, round) {
            return Err(PendingError::SenderOutlivesBound { round, sender });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn emits_depends_on_crash_round_and_subset() {
        let mut s = CrashSchedule::none(3);
        s.crash(
            p(0),
            RoundCrash {
                round: Round::new(2),
                sends_to: ProcessSet::singleton(p(2)),
            },
        );
        // Round 1: full broadcast.
        assert!(s.emits(p(0), Round::FIRST, p(1)));
        // Round 2 (crash round): only the chosen subset.
        assert!(!s.emits(p(0), Round::new(2), p(1)));
        assert!(s.emits(p(0), Round::new(2), p(2)));
        // Round 3: dead.
        assert!(!s.emits(p(0), Round::new(3), p(2)));
        assert!(s.sends_in(p(0), Round::new(2)));
        assert!(!s.sends_in(p(0), Round::new(3)));
    }

    #[test]
    fn pendable_triples_respect_weak_synchrony() {
        let mut schedule = CrashSchedule::none(3);
        schedule.crash(
            p(0),
            RoundCrash {
                round: Round::new(2),
                sends_to: ProcessSet::singleton(p(1)),
            },
        );
        let triples = schedule.pendable(2);
        // Round 1 (crash ≤ 2 ✓): both receivers. Round 2: only p(1)
        // gets the partial send. Round-1 from correct senders: none.
        assert_eq!(triples.len(), 3);
        assert!(triples.contains(&(Round::FIRST, p(0), p(1))));
        assert!(triples.contains(&(Round::FIRST, p(0), p(2))));
        assert!(triples.contains(&(Round::new(2), p(0), p(1))));
    }

    #[test]
    fn pending_valid_when_sender_crashes_in_time() {
        let mut s = CrashSchedule::none(3);
        // p1 crashes in round 2 after a full broadcast.
        s.crash(
            p(0),
            RoundCrash {
                round: Round::new(2),
                sends_to: ProcessSet::full(3),
            },
        );
        let mut pend = PendingChoice::none();
        // Round-1 message pending: sender crashes in round 2 = round 1+1. OK.
        pend.withhold(Round::FIRST, p(0), p(1));
        assert!(validate_pending(&s, &pend).is_ok());
        // Round-2 message pending: crashes in round 2 ≤ 3. Also OK.
        let mut pend2 = PendingChoice::none();
        pend2.withhold(Round::new(2), p(0), p(1));
        assert!(validate_pending(&s, &pend2).is_ok());
    }

    #[test]
    fn pending_rejected_when_sender_survives() {
        let mut s = CrashSchedule::none(3);
        s.crash(
            p(0),
            RoundCrash {
                round: Round::new(4),
                sends_to: ProcessSet::full(3),
            },
        );
        let mut pend = PendingChoice::none();
        pend.withhold(Round::FIRST, p(0), p(1)); // crash at 4 > 2: invalid
        assert_eq!(
            validate_pending(&s, &pend),
            Err(PendingError::SenderOutlivesBound {
                round: Round::FIRST,
                sender: p(0)
            })
        );
        // A correct sender can never have pending messages.
        let s2 = CrashSchedule::none(3);
        assert!(validate_pending(&s2, &pend).is_err());
    }

    #[test]
    fn pending_rejected_when_never_sent() {
        let mut s = CrashSchedule::none(3);
        s.crash(
            p(0),
            RoundCrash {
                round: Round::FIRST,
                sends_to: ProcessSet::empty(),
            },
        );
        let mut pend = PendingChoice::none();
        pend.withhold(Round::FIRST, p(0), p(1));
        assert_eq!(
            validate_pending(&s, &pend),
            Err(PendingError::NeverSent {
                round: Round::FIRST,
                sender: p(0),
                receiver: p(1)
            })
        );
    }

    #[test]
    fn self_pending_rejected() {
        let mut s = CrashSchedule::none(2);
        s.crash(
            p(0),
            RoundCrash {
                round: Round::FIRST,
                sends_to: ProcessSet::full(2),
            },
        );
        let mut pend = PendingChoice::none();
        pend.withhold(Round::FIRST, p(0), p(0));
        assert_eq!(
            validate_pending(&s, &pend),
            Err(PendingError::SelfPending { process: p(0) })
        );
    }

    #[test]
    fn withhold_all_is_idempotent() {
        let mut pend = PendingChoice::none();
        pend.withhold_all(Round::FIRST, p(0), 3);
        pend.withhold_all(Round::FIRST, p(0), 3);
        assert_eq!(pend.len(), 3);
        assert!(pend.is_withheld(Round::FIRST, p(0), p(2)));
    }

    #[test]
    fn permuted_schedule_moves_crash_and_remaps_sends() {
        let mut s = CrashSchedule::none(3);
        s.crash(
            p(0),
            RoundCrash {
                round: Round::new(2),
                sends_to: ProcessSet::singleton(p(1)),
            },
        );
        // Rotate 0→1→2→0.
        let rot = s.permuted(&[1, 2, 0]);
        assert!(rot.crash_of(p(0)).is_none());
        let c = rot.crash_of(p(1)).expect("crash moved to p2");
        assert_eq!(c.round, Round::new(2));
        assert_eq!(c.sends_to, ProcessSet::singleton(p(2)));
        // Identity round-trips; inverse rotation restores the original.
        assert_eq!(s.permuted(&[0, 1, 2]), s);
        assert_eq!(rot.permuted(&[2, 0, 1]), s);
    }

    #[test]
    fn pending_representation_is_sorted_and_permutable() {
        let mut pend = PendingChoice::none();
        pend.withhold(Round::new(2), p(1), p(0));
        pend.withhold(Round::FIRST, p(0), p(2));
        assert_eq!(
            pend.triples(),
            &[(Round::FIRST, p(0), p(2)), (Round::new(2), p(1), p(0))]
        );
        let swapped = pend.permuted(&[0, 2, 1]);
        assert!(swapped.is_withheld(Round::FIRST, p(0), p(1)));
        assert!(swapped.is_withheld(Round::new(2), p(2), p(0)));
        assert_eq!(swapped.permuted(&[0, 2, 1]), pend);
    }

    #[test]
    fn display_shows_crash_plan() {
        let mut s = CrashSchedule::none(2);
        assert_eq!(s.to_string(), "crashes[none]");
        s.crash(
            p(1),
            RoundCrash {
                round: Round::FIRST,
                sends_to: ProcessSet::empty(),
            },
        );
        assert!(s.to_string().contains("p2↓@1"));
    }
}
