//! The per-process round core, with no threads, sockets or clock. The
//! threaded driver ([`crate::driver`]) and the socket node
//! (`ssp-engine`'s cluster) both run it, so the round loop conformance
//! certifies is the one that serves. Its close rule is `RS` over `SS`
//! with the drain anchored at the suspicion: a missing wire counts as
//! absent once its sender has been suspected for at least `drain` (zero
//! under `RWS`, and once the watchdog degrades a run).

use std::mem;
use std::time::Duration;

use ssp_model::{process::all_processes, ProcessId, Round};
use ssp_rounds::RoundProcess;

use crate::fd::{SynchronyEvent, SynchronyMonitor};
use crate::trace::RoundObs;

/// How [`RoundCore::collect`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collected {
    /// The round may close.
    Ready,
    /// [`RoundIo::aborted`] stopped it.
    Aborted,
    /// [`RoundIo::expired`] came first.
    GaveUp,
}

/// A wire as the collect loop sees it: `(sender, round, payload)`.
pub type Wire<M> = (ProcessId, u32, Option<M>);

/// A backend's side of [`RoundCore::collect`].
pub trait RoundIo<M> {
    /// Asked first on every poll: whether the round must stop now.
    fn aborted(&mut self) -> bool;

    /// [`crate::FdModule::suspected_for`], asked for every missing
    /// sender on every poll.
    fn suspected_for(&mut self, q: ProcessId) -> Option<Duration>;

    /// Whether the round's give-up deadline has passed.
    fn expired(&mut self) -> bool;

    /// Waits up to one poll for a wire of this run (or instance).
    fn recv(&mut self) -> Option<Wire<M>>;
}

/// One process's round state machine. See the [module docs](self).
#[derive(Debug)]
pub struct RoundCore<P: RoundProcess> {
    proc_: P,
    me: ProcessId,
    n: usize,
    /// The open (or last closed) round; 0 before the first.
    round: u32,
    /// The open round's sent row: `None` where the emit mask cut the
    /// wire, `Some(None)` for an explicit null wire.
    sent: Vec<Option<Option<P::Msg>>>,
    got: Vec<Option<Option<P::Msg>>>,
    /// Wires of rounds not opened yet.
    early: Vec<Wire<P::Msg>>,
    pending: u64,
}

impl<P: RoundProcess> RoundCore<P> {
    /// A core for process `me` of `n`, before its first round.
    #[must_use]
    pub fn new(proc_: P, me: ProcessId, n: usize) -> Self {
        RoundCore {
            proc_,
            me,
            n,
            round: 0,
            sent: Vec::new(),
            got: Vec::new(),
            early: Vec::new(),
            pending: 0,
        }
    }

    /// The process.
    #[must_use]
    pub fn process(&self) -> &P {
        &self.proc_
    }

    /// Wires that arrived after their round had closed.
    #[must_use]
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Opens the next round and returns its sent row: the wire to
    /// every `q` with `emit(q)`, the self slot included. The received
    /// row starts with the self wire and the wires stashed for this
    /// round. The caller sends the row's other wires.
    pub fn open(&mut self, emit: impl Fn(ProcessId) -> bool) -> &[Option<Option<P::Msg>>] {
        self.round += 1;
        let r = Round::new(self.round);
        self.sent = all_processes(self.n)
            .map(|q| emit(q).then(|| self.proc_.msgs(r, q)))
            .collect();
        self.got = vec![None; self.n];
        self.got[self.me.index()].clone_from(&self.sent[self.me.index()]);
        let (round, got) = (self.round, &mut self.got);
        self.early.retain(|(src, r, payload)| {
            let absorbed = *r == round;
            if absorbed {
                got[src.index()] = Some(payload.clone());
            }
            !absorbed
        });
        &self.sent
    }

    /// Hands in a wire from `src` for `round`: the open round's is
    /// received, a later round's stashed, a closed round's counted as
    /// pending.
    pub fn deliver(&mut self, src: ProcessId, round: u32, payload: Option<P::Msg>) {
        let open = !self.got.is_empty();
        if round > self.round {
            self.early.push((src, round, payload));
        } else if round == self.round && open {
            self.got[src.index()] = Some(payload);
        } else {
            self.pending += 1;
        }
    }

    fn missing(&self) -> impl Iterator<Item = ProcessId> + '_ {
        all_processes(self.n).filter(|q| self.got[q.index()].is_none())
    }

    /// The close rule: every missing sender has been suspected for at
    /// least `drain`. Every missing sender is asked, even once the
    /// answer is known, so a driver sees each suspicion it acts on.
    fn ready(
        &self,
        mut suspected_for: impl FnMut(ProcessId) -> Option<Duration>,
        drain: Duration,
    ) -> bool {
        let mut ready = true;
        for q in self.missing() {
            ready &= suspected_for(q).is_some_and(|s| s >= drain);
        }
        ready
    }

    /// Polls `io` until the open round may close under `drain`, the
    /// backend aborts it, or its deadline passes. A late wire seen
    /// while the armed `monitor` still claims `RS` is reported to it:
    /// round synchrony was already broken when its round closed.
    pub fn collect(
        &mut self,
        io: &mut impl RoundIo<P::Msg>,
        monitor: &SynchronyMonitor,
        drain: Duration,
    ) -> Collected {
        loop {
            if io.aborted() {
                return Collected::Aborted;
            }
            let drain = if monitor.degraded() {
                Duration::ZERO
            } else {
                drain
            };
            if self.ready(|q| io.suspected_for(q), drain) {
                return Collected::Ready;
            }
            if io.expired() {
                return Collected::GaveUp;
            }
            let Some((src, round, payload)) = io.recv() else {
                continue;
            };
            if round < self.round && monitor.is_armed() && !monitor.degraded() {
                monitor.record(SynchronyEvent::PendingUnderRs {
                    src,
                    dst: self.me,
                    wire_round: Round::new(round),
                    observed_in: Round::new(self.round),
                });
            }
            self.deliver(src, round, payload);
        }
    }

    /// Closes the open round: records it and applies `trans`.
    pub fn close(&mut self) -> RoundObs<P::Msg> {
        let received: Vec<Option<P::Msg>> = self.got.iter().cloned().map(Option::flatten).collect();
        self.proc_.trans(Round::new(self.round), &received);
        RoundObs {
            sent: mem::take(&mut self.sent),
            received: Some(mem::take(&mut self.got)),
        }
    }

    /// Records the open round as never closed (its sends only).
    pub fn cut(&mut self) -> RoundObs<P::Msg> {
        self.got.clear();
        RoundObs {
            sent: mem::take(&mut self.sent),
            received: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_algos::{FloodSet, A1};
    use ssp_rounds::RoundAlgorithm;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// FloodSet's p1 of three, holding `v`.
    fn flood(v: u64) -> RoundCore<<FloodSet as RoundAlgorithm<u64>>::Process> {
        RoundCore::new(FloodSet.spawn(p(0), 3, 1, v), p(0), 3)
    }

    const DRAIN: Duration = Duration::from_millis(200);

    #[test]
    fn an_early_wire_is_stashed_then_absorbed() {
        let mut core = flood(5);
        core.open(|_| true);
        core.deliver(p(1), 2, None);
        assert_eq!(core.missing().collect::<Vec<_>>(), [p(1), p(2)]);
        core.deliver(p(1), 1, None);
        core.deliver(p(2), 1, None);
        assert!(core.ready(|_| None, DRAIN), "full row");
        core.close();
        core.open(|_| true);
        assert_eq!(
            core.missing().collect::<Vec<_>>(),
            [p(2)],
            "round 2 opens with p2's stashed wire"
        );
    }

    #[test]
    fn a_late_wire_is_counted_pending() {
        let mut core = flood(5);
        core.open(|_| true);
        core.deliver(p(1), 1, None);
        core.deliver(p(2), 1, None);
        core.close();
        core.deliver(p(1), 1, None);
        assert_eq!(core.pending(), 1, "closed, even before the next opens");
        core.open(|_| true);
        core.deliver(p(2), 1, None);
        assert_eq!(core.pending(), 2);
    }

    #[test]
    fn ready_only_once_the_missing_sender_is_suspected_for_the_drain() {
        let mut core = flood(5);
        core.open(|_| true);
        core.deliver(p(1), 1, None);
        let suspected =
            |d: Option<Duration>| move |q: ProcessId| (q == p(2)).then_some(d).flatten();
        assert!(!core.ready(suspected(None), DRAIN), "trusted");
        assert!(!core.ready(suspected(Some(Duration::ZERO)), DRAIN));
        assert!(!core.ready(suspected(Some(DRAIN - Duration::from_micros(1))), DRAIN));
        assert!(core.ready(suspected(Some(DRAIN)), DRAIN), "drained");
        assert!(
            core.ready(suspected(Some(Duration::ZERO)), Duration::ZERO),
            "RWS: suspicion alone"
        );
        // Every missing sender is asked, even after a refusal.
        let mut asked = Vec::new();
        let mut core = flood(5);
        core.open(|_| true);
        assert!(!core.ready(
            |q| {
                asked.push(q);
                None
            },
            DRAIN
        ));
        assert_eq!(asked, [p(1), p(2)]);
    }

    #[test]
    fn an_emit_masked_crash_row_reaches_only_the_mask() {
        let mut core = RoundCore::new(A1.spawn(p(0), 3, 1, 7u64), p(0), 3);
        let sent = core.open(|q| q != p(1)).to_vec();
        assert!(sent[0].is_some() && sent[2].is_some());
        assert_eq!(sent[1], None, "cut by the mask");
        let obs = core.cut();
        assert_eq!(obs.sent, sent);
        assert_eq!(obs.received, None, "a cut round never closes");
        assert_eq!(core.process().decision(), None, "no trans applied");
    }

    #[test]
    fn close_records_the_rows_and_applies_trans() {
        let mut core = RoundCore::new(A1.spawn(p(0), 3, 1, 7u64), p(0), 3);
        let wire = core.open(|_| true)[1].clone().unwrap();
        core.deliver(p(1), 1, wire.clone());
        core.deliver(p(2), 1, wire);
        let obs = core.close();
        assert!(obs.received.unwrap().iter().all(Option::is_some));
        assert_eq!(
            core.process().decision().map(|(v, r)| (v, r.get())),
            Some((7, 1)),
            "A1 decides p1's value in round 1"
        );
    }
}
