//! Canonical records of threaded runs, replayable against the round
//! models.
//!
//! Every [`crate::RuntimeBuilder`] execution assembles a [`RunTrace`]
//! from the per-worker logs: what each process sent (including
//! explicit null wires), what it had received when each of its rounds
//! closed, and where it crashed. From that single artifact the
//! conformance layer derives the two views the checker stack
//! understands:
//!
//! * a [`CrashSchedule`] + [`PendingChoice`] pair — the round-model
//!   adversary that *this* wall-clock run realized, replayable
//!   tick-for-tick through `ssp_rounds::run_rws_observed`;
//! * the canonical round-level [`RunLog`] ([`RunTrace::run_log`]),
//!   whose lockstep `Close` events carry the observed delivery
//!   matrices and whose projection onto delivery events diffs
//!   directly against the replay's log.
//!
//! The round-level log is a lossy view: it records a `Deliver` only for
//! a payload, never for an explicit null wire, and it does not record
//! which destinations a crashing process reached in its crash round.
//! [`RunTrace::schedule`] and [`RunTrace::validate`] need both, so the
//! trace, not its log, is the recorded artifact.
//!
//! [`RunTrace::validate`] certifies internal admissibility: complete
//! logs, message integrity across matching send/receive cells, no
//! pending messages under `RS`, and Lemma 4.1 for every pending
//! message under `RWS`. A run the synchrony watchdog *degraded*
//! ([`RunTrace::degraded_at`]) forfeits its `RS` claim and is
//! validated under the `RWS` discipline instead — a violated Δ voids
//! round synchrony for the whole run, not just the rounds after the
//! violation. An [`RunTrace::aborted`] run is not a run at all and
//! never validates.

use core::fmt;

use ssp_model::events::DeliveryMatrix;
use ssp_model::{ProcessId, ProcessSet, Round, RunEvent, RunLog};
use ssp_rounds::{
    validate_pending, CrashSchedule, PendingChoice, PendingError, RoundCrash, RoundModel,
    ScheduleError,
};

/// One process's observation of one round.
///
/// `sent[dst]` is `None` when no wire was emitted to `dst` (the crash
/// cut off that slot), `Some(None)` for an explicit null wire, and
/// `Some(Some(m))` for a payload. The self slot records the internal
/// self-delivery. `received` is `None` when the process died (or gave
/// up) before the round closed; otherwise `received[src]` uses the
/// same encoding for what had arrived by close time.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundObs<M> {
    /// Per-destination wires emitted this round.
    pub sent: Vec<Option<Option<M>>>,
    /// Per-sender wires present when the round closed, if it closed.
    pub received: Option<Vec<Option<Option<M>>>>,
}

/// Why a [`RunTrace`] is not an admissible run of its round model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunTraceError {
    /// A correct process's log does not cover the full horizon, or a
    /// crashed process's log length disagrees with its crash round.
    WrongLogLength {
        /// The process.
        process: ProcessId,
        /// Rounds its log should cover.
        expected: usize,
        /// Rounds it actually covers.
        got: usize,
    },
    /// A non-final round (or a correct process's round) never closed.
    IncompleteRound {
        /// The process.
        process: ProcessId,
        /// The round that did not close.
        round: Round,
    },
    /// A receive cell disagrees with the matching send cell.
    PayloadMismatch {
        /// The round.
        round: Round,
        /// The sender.
        sender: ProcessId,
        /// The receiver whose cell disagrees.
        receiver: ProcessId,
    },
    /// A receiver closed a round without a wire from a process that
    /// never crashed — the detector suspected a live process.
    FalseSuspicion {
        /// The suspecting receiver.
        observer: ProcessId,
        /// The live process it gave up on.
        suspect: ProcessId,
        /// The round it closed without the wire.
        round: Round,
    },
    /// The run executed under `RS` but produced a pending message.
    PendingInRs {
        /// The withheld round.
        round: Round,
        /// The sender.
        sender: ProcessId,
        /// The receiver.
        receiver: ProcessId,
    },
    /// The pending messages violate weak round synchrony (Lemma 4.1).
    Pending(PendingError),
    /// The crash schedule cannot drive a round-model run, e.g. more
    /// processes crashed than the fault bound `t` allows.
    Schedule(ScheduleError),
    /// The watchdog aborted the run: the logs are deliberately cut
    /// short and certify nothing.
    AbortedRun,
}

impl fmt::Display for RunTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunTraceError::WrongLogLength {
                process,
                expected,
                got,
            } => write!(f, "{process} logged {got} rounds, expected {expected}"),
            RunTraceError::IncompleteRound { process, round } => {
                write!(
                    f,
                    "{process} never closed {round} (and did not crash there)"
                )
            }
            RunTraceError::PayloadMismatch {
                round,
                sender,
                receiver,
            } => write!(
                f,
                "{receiver}'s {round} cell for {sender} disagrees with what {sender} sent"
            ),
            RunTraceError::FalseSuspicion {
                observer,
                suspect,
                round,
            } => write!(
                f,
                "{observer} closed {round} without {suspect}'s wire, but {suspect} never crashed"
            ),
            RunTraceError::PendingInRs {
                round,
                sender,
                receiver,
            } => write!(
                f,
                "pending {sender}→{receiver} at {round} under RS (round synchrony forbids it)"
            ),
            RunTraceError::Pending(e) => write!(f, "{e}"),
            RunTraceError::Schedule(e) => write!(f, "{e}"),
            RunTraceError::AbortedRun => {
                write!(
                    f,
                    "the watchdog aborted the run; the trace certifies nothing"
                )
            }
        }
    }
}

impl std::error::Error for RunTraceError {}

impl From<PendingError> for RunTraceError {
    fn from(e: PendingError) -> Self {
        RunTraceError::Pending(e)
    }
}

/// The canonical record of one threaded run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace<M> {
    /// Number of processes.
    pub n: usize,
    /// The algorithm's round horizon.
    pub horizon: u32,
    /// The model the run executed under: [`RoundModel::Rs`] for
    /// [`crate::SyncPolicy::Rs`], [`RoundModel::Rws`] otherwise.
    pub model: RoundModel,
    /// `logs[p]` — process `p`'s per-round observations, round order.
    pub logs: Vec<Vec<RoundObs<M>>>,
    /// Crash rounds, clamped to `horizon + 1` (the round-model limit
    /// for "decide then crash").
    pub crashes: Vec<Option<Round>>,
    /// `retired[p]` — the round at whose start process `p` *retired*
    /// under the early-close fast path: already decided, it burst-sent
    /// its wires for every remaining round and stopped receiving (see
    /// [`crate::RuntimeConfig::early_close`]). Its log still covers the
    /// full horizon, but rounds at or after the retire round record
    /// `received: None` without a crash. `None` for processes that ran
    /// every round to completion.
    pub retired: Vec<Option<Round>>,
    /// The round in which the synchrony watchdog downgraded the run to
    /// `RWS` semantics, if it did. A degraded run validates under the
    /// `RWS` discipline regardless of [`Self::model`].
    pub degraded_at: Option<Round>,
    /// Whether the watchdog aborted the run (logs deliberately cut
    /// short; nothing to certify).
    pub aborted: bool,
}

impl<M: Clone + fmt::Debug + PartialEq> RunTrace<M> {
    /// The round-model crash schedule this run realized: each victim
    /// crashes in its recorded round, delivering exactly to the slots
    /// its log shows wires for.
    #[must_use]
    pub fn schedule(&self) -> CrashSchedule {
        let mut schedule = CrashSchedule::none(self.n);
        for (i, crash) in self.crashes.iter().enumerate() {
            let Some(round) = crash else { continue };
            let p = ProcessId::new(i);
            let sends_to = if round.get() > self.horizon {
                ProcessSet::full(self.n)
            } else {
                self.logs[i]
                    .get((round.get() - 1) as usize)
                    .map(|obs| {
                        (0..self.n)
                            .filter(|&q| obs.sent[q].is_some())
                            .map(ProcessId::new)
                            .collect()
                    })
                    .unwrap_or_else(ProcessSet::empty)
            };
            schedule.crash(
                p,
                RoundCrash {
                    round: *round,
                    sends_to,
                },
            );
        }
        schedule
    }

    /// The pending-message choice this run realized: every wire that
    /// was emitted but absent from its receiver's closed round.
    #[must_use]
    pub fn pending(&self) -> PendingChoice {
        let mut pending = PendingChoice::none();
        let rounds = self.logs.iter().map(Vec::len).max().unwrap_or(0);
        for ri in 0..rounds {
            for (src, dst) in self.withheld(ri) {
                pending.withhold(Round::new(ri as u32 + 1), src, dst);
            }
        }
        pending
    }

    /// The `(sender, receiver)` pairs of round index `ri` whose wire was
    /// emitted but is absent from the receiver's closed row, in
    /// receiver-major order.
    fn withheld(&self, ri: usize) -> impl Iterator<Item = (ProcessId, ProcessId)> + '_ {
        self.logs.iter().enumerate().flat_map(move |(q, log)| {
            let row = log.get(ri).and_then(|obs| obs.received.as_ref());
            row.into_iter().flat_map(move |row| {
                row.iter()
                    .enumerate()
                    .filter(move |&(p, cell)| {
                        p != q
                            && cell.is_none()
                            && self.logs[p]
                                .get(ri)
                                .is_some_and(|sobs| sobs.sent[q].is_some())
                    })
                    .map(move |(p, _)| (ProcessId::new(p), ProcessId::new(q)))
            })
        })
    }

    /// The canonical round-level [`RunLog`] of this run, in the exact
    /// emission order of the `ssp-rounds` executors: per round,
    /// `Crash` events (ascending process), `Deliver` events
    /// receiver-major over the flattened matrices, `Withhold` events
    /// for wires emitted but absent from their receiver's closed row,
    /// and a lockstep `Close` carrying the heard matrix; then
    /// post-horizon `Crash` events, the watchdog's `Degrade` (in its
    /// round), and a final `Abort` if the run was cut short.
    ///
    /// Because the order matches the executors' by construction,
    /// conformance is a projected
    /// [`first_divergence`](RunLog::first_divergence) between this log
    /// and the replay's.
    #[must_use]
    pub fn run_log(&self) -> RunLog<M> {
        let mut log = RunLog::new(self.n);
        for r in 1..=self.horizon {
            let round = Round::new(r);
            let ri = (r - 1) as usize;
            for (p, crash) in self.crashes.iter().enumerate() {
                if *crash == Some(round) {
                    log.push(RunEvent::Crash {
                        process: ProcessId::new(p),
                        round: Some(round),
                        time: None,
                    });
                }
            }
            let mut heard = DeliveryMatrix::empty(self.n);
            for (q, qlog) in self.logs.iter().enumerate() {
                let row = qlog.get(ri).and_then(|obs| obs.received.as_ref());
                let Some(row) = row else { continue };
                for (p, cell) in row.iter().enumerate() {
                    if let Some(m) = cell.clone().flatten() {
                        heard.insert(ProcessId::new(q), ProcessId::new(p));
                        log.push(RunEvent::Deliver {
                            src: ProcessId::new(p),
                            dst: ProcessId::new(q),
                            round: Some(round),
                            sent_at: None,
                            payload: Some(m),
                        });
                    }
                }
            }
            for (src, dst) in self.withheld(ri) {
                log.push(RunEvent::Withhold { round, src, dst });
            }
            log.push(RunEvent::Close {
                round: Some(round),
                process: None,
                stamp: None,
                heard,
            });
            if self.degraded_at == Some(round) {
                log.push(RunEvent::Degrade { round });
            }
        }
        for (p, crash) in self.crashes.iter().enumerate() {
            if let Some(round) = crash {
                if round.get() > self.horizon {
                    log.push(RunEvent::Crash {
                        process: ProcessId::new(p),
                        round: Some(*round),
                        time: None,
                    });
                }
            }
        }
        if self.aborted {
            log.push(RunEvent::Abort);
        }
        log
    }

    /// Whether the run still holds its `RS` claim: executed under `RS`
    /// and never degraded.
    #[must_use]
    pub fn effective_rs(&self) -> bool {
        self.model == RoundModel::Rs && self.degraded_at.is_none()
    }

    /// Certifies that the trace is an admissible run of its model.
    ///
    /// Checks, in order: log shapes against crash rounds; round
    /// completeness (a round may stay open only in its owner's crash
    /// round or at/after its owner's retire round); message integrity
    /// (each received cell equals the matching sent cell); detector
    /// accuracy (a round closed without a wire only when the sender
    /// crashed); and the pending-message discipline — none under `RS`,
    /// Lemma 4.1 under `RWS`.
    ///
    /// # Errors
    ///
    /// Returns the first inadmissibility found.
    pub fn validate(&self) -> Result<(), RunTraceError> {
        if self.aborted {
            return Err(RunTraceError::AbortedRun);
        }
        for p in 0..self.n {
            let pid = ProcessId::new(p);
            let expected = match self.crashes[p] {
                Some(r) if r.get() <= self.horizon => r.get() as usize,
                _ => self.horizon as usize,
            };
            if self.logs[p].len() != expected {
                return Err(RunTraceError::WrongLogLength {
                    process: pid,
                    expected,
                    got: self.logs[p].len(),
                });
            }
            for (ri, obs) in self.logs[p].iter().enumerate() {
                let round = Round::new(ri as u32 + 1);
                let in_crash_round = self.crashes[p].is_some_and(|c| c.get() as usize == ri + 1);
                let retired = self.retired[p].is_some_and(|rr| rr.get() as usize <= ri + 1);
                if obs.received.is_none() && !in_crash_round && !retired {
                    return Err(RunTraceError::IncompleteRound {
                        process: pid,
                        round,
                    });
                }
            }
        }
        // Message integrity + detector accuracy.
        for (q, log) in self.logs.iter().enumerate() {
            for (ri, obs) in log.iter().enumerate() {
                let Some(row) = &obs.received else { continue };
                let round = Round::new(ri as u32 + 1);
                for (p, cell) in row.iter().enumerate() {
                    if p == q {
                        continue;
                    }
                    match cell {
                        Some(wire) => {
                            let sent = self.logs[p].get(ri).and_then(|s| s.sent[q].as_ref());
                            if sent != Some(wire) {
                                return Err(RunTraceError::PayloadMismatch {
                                    round,
                                    sender: ProcessId::new(p),
                                    receiver: ProcessId::new(q),
                                });
                            }
                        }
                        None => {
                            if self.crashes[p].is_none() {
                                return Err(RunTraceError::FalseSuspicion {
                                    observer: ProcessId::new(q),
                                    suspect: ProcessId::new(p),
                                    round,
                                });
                            }
                        }
                    }
                }
            }
        }
        let pending = self.pending();
        if self.effective_rs() {
            if let Some(&(round, sender, receiver)) = pending.triples().first() {
                return Err(RunTraceError::PendingInRs {
                    round,
                    sender,
                    receiver,
                });
            }
        } else {
            validate_pending(&self.schedule(), &pending)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(
        sent: Vec<Option<Option<u64>>>,
        received: Option<Vec<Option<Option<u64>>>>,
    ) -> RoundObs<u64> {
        RoundObs { sent, received }
    }

    /// n=2, horizon=1, failure-free: both broadcast and hear each other.
    fn clean_trace() -> RunTrace<u64> {
        RunTrace {
            n: 2,
            horizon: 1,
            model: RoundModel::Rs,
            logs: vec![
                vec![obs(
                    vec![Some(Some(7)), Some(Some(7))],
                    Some(vec![Some(Some(7)), Some(Some(8))]),
                )],
                vec![obs(
                    vec![Some(Some(8)), Some(Some(8))],
                    Some(vec![Some(Some(7)), Some(Some(8))]),
                )],
            ],
            crashes: vec![None, None],
            retired: vec![None, None],
            degraded_at: None,
            aborted: false,
        }
    }

    /// n=2, horizon=1, RWS: p1's wire to p2 is pending, p1 crashes
    /// post-horizon.
    fn pending_trace() -> RunTrace<u64> {
        RunTrace {
            n: 2,
            horizon: 1,
            model: RoundModel::Rws,
            logs: vec![
                vec![obs(
                    vec![Some(Some(7)), Some(Some(7))],
                    Some(vec![Some(Some(7)), Some(Some(8))]),
                )],
                vec![obs(
                    vec![Some(Some(8)), Some(Some(8))],
                    Some(vec![None, Some(Some(8))]),
                )],
            ],
            crashes: vec![Some(Round::new(2)), None],
            retired: vec![None, None],
            degraded_at: None,
            aborted: false,
        }
    }

    #[test]
    fn clean_trace_validates() {
        let t = clean_trace();
        t.validate().unwrap();
        assert!(t.pending().is_empty());
        assert_eq!(t.schedule().fault_count(), 0);
    }

    #[test]
    fn pending_is_derived_and_lemma_checked() {
        let t = pending_trace();
        t.validate().unwrap();
        let pending = t.pending();
        assert_eq!(
            pending.triples(),
            &[(Round::FIRST, ProcessId::new(0), ProcessId::new(1))]
        );
    }

    #[test]
    fn retired_rounds_may_stay_open() {
        // An open round is inadmissible for a running process…
        let mut t = clean_trace();
        t.logs[0][0].received = None;
        assert!(matches!(
            t.validate(),
            Err(RunTraceError::IncompleteRound { .. })
        ));
        // …but fine at/after the owner's retire round.
        t.retired[0] = Some(Round::FIRST);
        t.validate().unwrap();
    }

    #[test]
    fn rs_rejects_pending() {
        let mut t = pending_trace();
        t.model = RoundModel::Rs;
        assert!(matches!(
            t.validate(),
            Err(RunTraceError::PendingInRs { .. })
        ));
    }

    #[test]
    fn degraded_rs_validates_as_rws() {
        // The same pending message that damns an RS trace is fine once
        // the watchdog downgraded the run (and Lemma 4.1 holds).
        let mut t = pending_trace();
        t.model = RoundModel::Rs;
        t.degraded_at = Some(Round::FIRST);
        assert!(!t.effective_rs());
        t.validate().unwrap();
    }

    #[test]
    fn aborted_traces_certify_nothing() {
        let mut t = clean_trace();
        t.aborted = true;
        assert!(matches!(t.validate(), Err(RunTraceError::AbortedRun)));
    }

    #[test]
    fn false_suspicion_is_caught() {
        let mut t = pending_trace();
        t.crashes[0] = None; // sender "never crashed" — suspicion was wrong
                             // Fix the log length expectation: p1 is now correct with 1 round.
        assert!(matches!(
            t.validate(),
            Err(RunTraceError::FalseSuspicion { .. })
        ));
    }

    #[test]
    fn payload_mismatch_is_caught() {
        let mut t = clean_trace();
        t.logs[1][0].received.as_mut().unwrap()[0] = Some(Some(99));
        assert!(matches!(
            t.validate(),
            Err(RunTraceError::PayloadMismatch { .. })
        ));
    }

    #[test]
    fn wrong_log_length_is_caught() {
        let mut t = clean_trace();
        t.logs[0].clear();
        assert!(matches!(
            t.validate(),
            Err(RunTraceError::WrongLogLength { .. })
        ));
    }

    #[test]
    fn run_log_emits_canonical_delivery_core() {
        let t = pending_trace();
        let log = t.run_log();
        // p1's withheld wire to p2 shows up as a Withhold, its
        // post-horizon crash as a round-2 Crash.
        assert!(log.events().iter().any(|e| matches!(
            e,
            RunEvent::Withhold { round, src, dst }
                if *round == Round::FIRST && src.index() == 0 && dst.index() == 1
        )));
        assert!(log.events().iter().any(|e| matches!(
            e,
            RunEvent::Crash { process, round: Some(r), .. }
                if process.index() == 0 && r.get() == 2
        )));
        // The clean run's log has no withholds and diverges from the
        // pending run's at the first delivery difference.
        let clean = clean_trace().run_log();
        assert!(clean
            .events()
            .iter()
            .all(|e| !matches!(e, RunEvent::Withhold { .. })));
        assert!(clean.first_divergence(&log).is_some());
    }

    #[test]
    fn aborted_run_log_ends_with_abort() {
        let mut t = clean_trace();
        t.aborted = true;
        assert_eq!(t.run_log().events().last(), Some(&RunEvent::Abort));
    }

    #[test]
    fn errors_display() {
        let e = RunTraceError::FalseSuspicion {
            observer: ProcessId::new(1),
            suspect: ProcessId::new(0),
            round: Round::FIRST,
        };
        assert!(e.to_string().contains("never crashed"));
    }
}
