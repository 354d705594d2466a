//! The client-facing proposal queue: pending commands, per-process
//! proposal views, decided-ID tracking, and re-proposal of undecided
//! batches.
//!
//! Each instance, every process proposes a *prefix* of the shared
//! pending queue, with per-process lengths staggered deterministically
//! — modelling proposers whose batching windows closed at different
//! points of the same arrival stream. Consensus validity guarantees
//! the decided batch is one of those proposals, hence itself a prefix:
//! [`Proposer::commit`] removes exactly that prefix, and everything
//! behind it stays pending and is re-proposed in later instances —
//! including batches orphaned when their proposer crashed
//! mid-instance.
//!
//! The exactly-once sets of seed-workload ids are [`SeqSet`]s per
//! client: a client's sequence numbers are submitted, proposed and
//! decided in order, so each set keeps a watermark and its small
//! out-of-order window rather than every id ever seen.

use core::fmt;
use std::collections::{HashMap, HashSet, VecDeque};

use ssp_runtime::SeqSet;

use crate::command::{Batch, Command, CommandId, Op};

/// Why a decided batch could not be committed. Either variant is an
/// exactly-once violation (and would fail the post-run audit too, as a
/// uniform-agreement or validity breach).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitError {
    /// The decided batch contains a command that was already decided
    /// by an earlier instance.
    Duplicate(CommandId),
    /// The decided batch contains a command no client ever submitted.
    Unknown(CommandId),
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::Duplicate(id) => write!(f, "command {id} decided twice"),
            CommitError::Unknown(id) => write!(f, "decided command {id} was never submitted"),
        }
    }
}

impl std::error::Error for CommitError {}

/// A lossless set of command ids: one [`SeqSet`] of sequence numbers
/// per client.
#[derive(Debug, Default)]
struct IdSet(HashMap<u32, SeqSet>);

impl IdSet {
    fn insert(&mut self, id: CommandId) -> bool {
        self.0
            .entry(id.client)
            .or_default()
            .insert(u64::from(id.seq))
    }

    fn contains(&self, id: CommandId) -> bool {
        self.0
            .get(&id.client)
            .is_some_and(|s| s.contains(u64::from(id.seq)))
    }

    fn len(&self) -> u64 {
        self.0.values().map(SeqSet::len).sum()
    }

    /// Entries held in memory: one watermark per client plus the ids
    /// above it.
    fn retained(&self) -> usize {
        self.0.len() + self.0.values().map(SeqSet::retained).sum::<usize>()
    }
}

/// The engine's shared proposal state.
#[derive(Debug, Default)]
pub struct Proposer {
    pending: VecDeque<Command>,
    submitted: IdSet,
    decided: IdSet,
    /// Commands proposed in at least one earlier instance.
    proposed: IdSet,
    /// Undecided commands proposed in two or more distinct instances.
    /// A decided command leaves `pending` and is never proposed again,
    /// so it moves from this set to `reproposed_decided`.
    reproposed: HashSet<CommandId>,
    /// Decided commands that had been proposed in two or more
    /// instances.
    reproposed_decided: u64,
    /// Externally submitted commands not yet decided, admission order.
    /// Kept apart from `pending` so the seed-deterministic proposal
    /// prefixes every replica replays are untouched by client timing —
    /// externals ride as a *tail* appended by the serving layer.
    external_pending: VecDeque<Command>,
    /// Every external id ever admitted locally (pending or decided).
    external_enqueued: HashSet<CommandId>,
    /// Decided external ids with where they were decided:
    /// `(instance, round)`. Populated at commit for *any* external in
    /// a decided batch — including ones another node proposed — which
    /// is what makes a resubmission after a gateway failover an
    /// instant re-ack instead of a double apply.
    external_decided: HashMap<CommandId, (u64, u32)>,
}

impl Proposer {
    /// An empty proposer.
    #[must_use]
    pub fn new() -> Self {
        Proposer::default()
    }

    /// Enqueues a freshly submitted client command.
    pub fn submit(&mut self, cmd: Command) {
        self.submitted.insert(cmd.id);
        self.pending.push_back(cmd);
    }

    /// Commands waiting to be decided.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Distinct commands that had to be proposed in more than one
    /// instance (their first batch was not the decided one — typically
    /// because the proposer crashed or a shorter prefix won).
    #[must_use]
    pub fn reproposed(&self) -> u64 {
        self.reproposed_decided + self.reproposed.len() as u64
    }

    /// Entries the seed-workload exactly-once sets hold in memory: per
    /// client a watermark and the ids above it, plus the undecided
    /// re-proposed commands. Stays O(clients) under a closed-loop
    /// workload however many commands have been decided.
    #[must_use]
    pub fn retained_ids(&self) -> usize {
        self.submitted.retained()
            + self.decided.retained()
            + self.proposed.retained()
            + self.reproposed.len()
    }

    /// Builds the `n` per-process proposals for one instance: process
    /// `p` proposes the first `1 + (instance + p) mod batch_max`
    /// pending commands (clamped to the queue). Deterministic, and
    /// per-process distinct whenever the queue is long enough — so
    /// instances genuinely arbitrate between competing batches.
    pub fn proposals(&mut self, n: usize, batch_max: usize, instance: u64) -> Vec<Batch> {
        let cap = batch_max.max(1);
        let batches: Vec<Batch> = (0..n)
            .map(|p| {
                #[allow(clippy::cast_possible_truncation)]
                let want = 1 + ((instance as usize).wrapping_add(p) % cap);
                Batch(
                    self.pending
                        .iter()
                        .take(want.min(self.pending.len()))
                        .copied()
                        .collect(),
                )
            })
            .collect();
        // Re-proposal accounting: a command seen by *some earlier*
        // instance and proposed again now was orphaned at least once.
        let this_instance: HashSet<CommandId> = batches
            .iter()
            .flat_map(|b| b.iter().map(|c| c.id))
            .collect();
        for &id in &this_instance {
            if !self.proposed.insert(id) {
                self.reproposed.insert(id);
            }
        }
        batches
    }

    /// Whether a command is an external gateway submission (as opposed
    /// to a seed-workload command or a prepare marker, which reserves
    /// an id with the external bit set but is control traffic).
    fn is_external_cmd(cmd: &Command) -> bool {
        cmd.id.is_external() && !matches!(cmd.op, Op::Prepare { .. })
    }

    /// Admits an externally submitted command. Returns `false` — and
    /// changes nothing — when the id was already admitted here or
    /// already decided by *any* node's proposal (the exactly-once
    /// check a resubmission after reconnect relies on).
    ///
    /// # Panics
    ///
    /// Panics if the command's id is not in the external id space
    /// ([`CommandId::external`]).
    pub fn submit_external(&mut self, cmd: Command) -> bool {
        assert!(
            Self::is_external_cmd(&cmd),
            "submit_external takes gateway commands only, got {}",
            cmd.id
        );
        if self.external_decided.contains_key(&cmd.id) || !self.external_enqueued.insert(cmd.id) {
            return false;
        }
        self.external_pending.push_back(cmd);
        true
    }

    /// The first `max` undecided external commands, admission order —
    /// non-destructive: they stay queued until a commit removes them,
    /// so an undecided instance re-proposes the same tail.
    #[must_use]
    pub fn external_tail(&self, max: usize) -> Vec<Command> {
        self.external_pending.iter().take(max).copied().collect()
    }

    /// Undecided external commands currently queued.
    #[must_use]
    pub fn external_len(&self) -> usize {
        self.external_pending.len()
    }

    /// Where an external command was decided, if it was:
    /// `(instance, round)`.
    #[must_use]
    pub fn decided_at(&self, id: CommandId) -> Option<(u64, u32)> {
        self.external_decided.get(&id).copied()
    }

    /// Commits a decided batch: marks every command decided (exactly
    /// once), removes it from the pending queues, and returns the
    /// commands in decision order for state-machine application.
    /// `instance` and `round` record where the decision fell (the
    /// gateway acks externals with them).
    ///
    /// Seed-workload commands are checked strictly — a duplicate or
    /// unknown id is an exactly-once violation. External commands are
    /// accepted even when this node never admitted them (another
    /// node's gateway proposed them), and a *re-decided* external is
    /// silently skipped — excluded from the returned application list
    /// — rather than an error, because a client resubmitting across a
    /// reconnect legitimately races the original decision.
    ///
    /// # Errors
    ///
    /// [`CommitError::Duplicate`] if a seed command was already decided
    /// by an earlier instance; [`CommitError::Unknown`] if it was never
    /// submitted.
    pub fn commit(
        &mut self,
        batch: &Batch,
        instance: u64,
        round: u32,
    ) -> Result<Vec<Command>, CommitError> {
        for cmd in batch.iter() {
            if Self::is_external_cmd(cmd) {
                continue;
            }
            if !self.submitted.contains(cmd.id) {
                return Err(CommitError::Unknown(cmd.id));
            }
            if !self.decided.insert(cmd.id) {
                return Err(CommitError::Duplicate(cmd.id));
            }
        }
        let mut applied = Vec::with_capacity(batch.len());
        for cmd in batch.iter() {
            if Self::is_external_cmd(cmd) {
                if self.external_decided.contains_key(&cmd.id) {
                    continue;
                }
                self.external_decided.insert(cmd.id, (instance, round));
            }
            applied.push(*cmd);
        }
        let decided: HashSet<CommandId> = batch.iter().map(|c| c.id).collect();
        for id in &decided {
            if self.reproposed.remove(id) {
                self.reproposed_decided += 1;
            }
        }
        self.pending.retain(|c| !decided.contains(&c.id));
        self.external_pending.retain(|c| !decided.contains(&c.id));
        Ok(applied)
    }

    /// Commands decided so far (seed workload only; external decisions
    /// are tracked in [`decided_at`](Proposer::decided_at)).
    #[must_use]
    pub fn decided_len(&self) -> u64 {
        self.decided.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Op;

    fn cmd(client: u32, seq: u32) -> Command {
        Command {
            id: CommandId { client, seq },
            op: Op::Put {
                key: client,
                value: u64::from(seq),
            },
        }
    }

    #[test]
    fn proposals_are_staggered_prefixes() {
        let mut p = Proposer::new();
        for i in 0..5 {
            p.submit(cmd(i, 0));
        }
        let batches = p.proposals(3, 4, 0);
        assert_eq!(
            batches.iter().map(Batch::len).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        for b in &batches {
            assert!(
                b.0.iter()
                    .zip(batches[2].0.iter())
                    .all(|(a, b)| a.id == b.id),
                "every proposal is a prefix of the longest"
            );
        }
    }

    #[test]
    fn commit_removes_the_decided_prefix_and_counts_reproposals() {
        let mut p = Proposer::new();
        for i in 0..4 {
            p.submit(cmd(i, 0));
        }
        let batches = p.proposals(2, 4, 0);
        assert_eq!(p.reproposed(), 0);
        // The shorter proposal wins; the rest stays pending.
        p.commit(&batches[0], 0, 1).unwrap();
        assert_eq!(p.pending_len(), 3);
        let again = p.proposals(2, 4, 1);
        assert!(p.reproposed() > 0, "orphaned commands were re-proposed");
        p.commit(&again[1], 1, 1).unwrap();
        assert_eq!(p.decided_len(), 1 + again[1].len() as u64);
    }

    #[test]
    fn double_decide_is_rejected() {
        let mut p = Proposer::new();
        p.submit(cmd(0, 0));
        let b = p.proposals(1, 1, 0).remove(0);
        p.commit(&b, 0, 1).unwrap();
        assert_eq!(
            p.commit(&b, 1, 1),
            Err(CommitError::Duplicate(CommandId { client: 0, seq: 0 }))
        );
    }

    #[test]
    fn unsubmitted_commands_are_rejected() {
        let mut p = Proposer::new();
        let ghost = Batch(vec![cmd(9, 9)]);
        assert_eq!(
            p.commit(&ghost, 0, 1),
            Err(CommitError::Unknown(CommandId { client: 9, seq: 9 }))
        );
    }

    fn ext(client: u64, req: u64) -> Command {
        Command {
            id: CommandId::external(client, req),
            op: Op::Put {
                key: 1000 + client as u32,
                value: req,
            },
        }
    }

    #[test]
    fn external_submissions_dedup_and_ride_as_a_tail() {
        let mut p = Proposer::new();
        p.submit(cmd(0, 0));
        assert!(p.submit_external(ext(1, 0)));
        assert!(!p.submit_external(ext(1, 0)), "second admission dedups");
        assert!(p.submit_external(ext(1, 1)));
        assert_eq!(p.external_len(), 2);
        // The tail is non-destructive and bounded.
        assert_eq!(p.external_tail(1).len(), 1);
        assert_eq!(p.external_len(), 2);

        // Commit a batch of seed prefix + external tail, round 1 of
        // instance 4.
        let mut proposal = p.proposals(1, 4, 0).remove(0);
        proposal.0.extend(p.external_tail(8));
        let applied = p.commit(&proposal, 4, 1).unwrap();
        assert_eq!(applied.len(), 3);
        assert_eq!(p.external_len(), 0);
        assert_eq!(p.decided_at(CommandId::external(1, 0)), Some((4, 1)));
        assert_eq!(p.decided_at(CommandId::external(9, 9)), None);
    }

    #[test]
    fn redecided_externals_are_skipped_not_errors() {
        let mut p = Proposer::new();
        assert!(p.submit_external(ext(2, 7)));
        let b = Batch(vec![ext(2, 7)]);
        assert_eq!(p.commit(&b, 0, 1).unwrap().len(), 1);
        // The same external decided again (resubmission raced the
        // original decision): skipped, not applied, not an error.
        assert_eq!(p.commit(&b, 1, 2).unwrap().len(), 0);
        assert_eq!(
            p.decided_at(CommandId::external(2, 7)),
            Some((0, 1)),
            "the first decision's coordinates stick"
        );
        // Resubmission after the decision is refused.
        assert!(!p.submit_external(ext(2, 7)));
    }

    #[test]
    fn externals_decided_elsewhere_commit_without_local_admission() {
        let mut p = Proposer::new();
        // Another node's gateway admitted and proposed this command;
        // this replica only sees it in the decided batch.
        let b = Batch(vec![ext(3, 0)]);
        let applied = p.commit(&b, 2, 2).unwrap();
        assert_eq!(applied.len(), 1);
        // A later resubmission to *this* node re-acks instead of
        // re-admitting.
        assert!(!p.submit_external(ext(3, 0)));
        assert_eq!(p.decided_at(CommandId::external(3, 0)), Some((2, 2)));
    }
}
