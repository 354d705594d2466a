//! The exploration space: crash skeletons, adversary choice wires,
//! and realizability of a choice over the threaded runtime.
//!
//! A round-model execution is fully determined by the adversary pair
//! `(CrashSchedule, PendingChoice)`. The explorer factors that pair
//! into two layers:
//!
//! 1. a **crash skeleton** — which processes crash in which round
//!    (at most `t`, rounds `1..=horizon+1`, where `horizon + 1` means
//!    "complete every round, then crash");
//! 2. per-skeleton **wire fates** — for every message wire on which
//!    the adversary has any freedom, whether it is delivered in time,
//!    never emitted, or emitted but withheld past the receiver's
//!    round close.
//!
//! The freedom is exactly the one §4 grants: a process crashing in
//! round `c ≤ horizon` may reach an arbitrary subset of receivers
//! with its round-`c` message ([`Fate::Omit`] vs [`Fate::Deliver`]),
//! and under `RWS` (Lemma 4.1) its round-`c` and round-`c−1` wires —
//! plus the round-`horizon` wires of a post-horizon crasher — may be
//! *pending* ([`Fate::Withhold`]). Survivors' other wires have no
//! choice: round synchrony forces timely delivery.

use ssp_model::process::all_processes;
use ssp_model::{ProcessId, ProcessSet, Round};
use ssp_rounds::{CrashSchedule, PendingChoice, RoundCrash};
use ssp_runtime::PlanModel;

/// The adversary's decision for one choice wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// The wire is emitted and delivered in time — the default, and
    /// the only fate of every non-choice wire.
    Deliver,
    /// The wire is never emitted (`dst ∉ sends_to`; crash-round wires
    /// only).
    Omit,
    /// The wire is emitted but withheld past the receiver's round
    /// close — *pending* in the §4.1 sense (`RWS` only).
    Withhold,
}

/// One adversary choice point: the round-`round` wire from the
/// crashing `src` to an observing `dst`.
#[derive(Debug, Clone, Copy)]
pub struct Wire {
    /// The round whose message travels on this wire.
    pub round: u32,
    /// The crashing sender.
    pub src: ProcessId,
    /// The receiver; always one that outlives round `round` (wires to
    /// already-dead receivers are semantically inert).
    pub dst: ProcessId,
    /// Whether [`Fate::Omit`] is available (crash-round wires only).
    pub can_omit: bool,
    /// Whether [`Fate::Withhold`] is available (`RWS` only).
    pub can_withhold: bool,
}

/// A crash skeleton: for each process, the round it crashes in
/// (`None` = survives). Round `horizon + 1` encodes a post-horizon
/// crash.
pub type Skeleton = Vec<Option<u32>>;

/// Enumerates every crash skeleton for `n` processes, at most `t`
/// crashes, rounds `1..=horizon+1`, in a deterministic order (the
/// benign skeleton first).
#[must_use]
pub fn skeletons(n: usize, t: usize, horizon: u32) -> Vec<Skeleton> {
    fn rec(p: usize, budget: usize, horizon: u32, cur: &mut Skeleton, out: &mut Vec<Skeleton>) {
        if p == cur.len() {
            out.push(cur.clone());
            return;
        }
        rec(p + 1, budget, horizon, cur, out);
        if budget > 0 {
            for c in 1..=horizon + 1 {
                cur[p] = Some(c);
                rec(p + 1, budget - 1, horizon, cur, out);
            }
            cur[p] = None;
        }
    }
    let mut out = Vec::new();
    let mut cur: Skeleton = vec![None; n];
    rec(0, t, horizon, &mut cur, &mut out);
    out
}

/// The choice wires of a skeleton, sorted by `(round, src, dst)`.
///
/// They are Lemma 4.1's pendable triples ([`CrashSchedule::pendable`])
/// of the skeleton with full crash-round sends, kept only toward
/// observers: receivers with a later crash round (wires to
/// already-dead receivers are semantically inert). A victim crashing
/// in round `c ≤ horizon` has its round-`c` wires carry `{Deliver,
/// Omit}`, plus `Withhold` under `RWS`; its round-`c−1` wires, and the
/// round-`horizon` wires of a post-horizon victim, carry `Withhold`
/// under `RWS` only. Self-wires are excluded (a process's message to
/// itself is delivered by construction and invisible to the
/// adversary).
#[must_use]
pub fn choice_wires(skeleton: &Skeleton, horizon: u32, model: PlanModel) -> Vec<Wire> {
    let n = skeleton.len();
    let rws = model == PlanModel::Rws;
    let crash_round = |q: ProcessId| skeleton[q.index()].unwrap_or(u32::MAX);
    let mut full_sends = CrashSchedule::none(n);
    for (v, &slot) in skeleton.iter().enumerate() {
        if let Some(c) = slot {
            full_sends.crash(
                ProcessId::new(v),
                RoundCrash {
                    round: Round::new(c),
                    sends_to: ProcessSet::full(n),
                },
            );
        }
    }
    let mut wires: Vec<Wire> = full_sends
        .pendable(horizon)
        .into_iter()
        .filter(|&(r, _, dst)| crash_round(dst) > r.get())
        .map(|(r, src, dst)| Wire {
            round: r.get(),
            src,
            dst,
            can_omit: r.get() == crash_round(src),
            can_withhold: rws,
        })
        .filter(|w| w.can_omit || w.can_withhold)
        .collect();
    wires.sort_by_key(|w| (w.round, w.src, w.dst));
    wires
}

/// Materializes a full fate assignment over `wires` into the
/// `(CrashSchedule, PendingChoice)` adversary it denotes: a victim's
/// crash-round `sends_to` collects the receivers of its non-omitted
/// wires, a post-horizon crash sends to everyone (the canonical form
/// the threaded trace derives), and every [`Fate::Withhold`] becomes
/// a pending triple.
#[must_use]
pub fn realize(
    skeleton: &Skeleton,
    wires: &[Wire],
    fates: &[Fate],
    horizon: u32,
) -> (CrashSchedule, PendingChoice) {
    let n = skeleton.len();
    let mut schedule = CrashSchedule::none(n);
    for (v, &slot) in skeleton.iter().enumerate() {
        let Some(c) = slot else { continue };
        let sends_to = if c <= horizon {
            let mut set = ProcessSet::empty();
            for (w, f) in wires.iter().zip(fates) {
                if w.src.index() == v && w.round == c && *f != Fate::Omit {
                    set.insert(w.dst);
                }
            }
            set
        } else {
            ProcessSet::full(n)
        };
        schedule.crash(
            ProcessId::new(v),
            RoundCrash {
                round: Round::new(c),
                sends_to,
            },
        );
    }
    let mut pending = PendingChoice::none();
    for (w, f) in wires.iter().zip(fates) {
        if *f == Fate::Withhold {
            pending.withhold(Round::new(w.round), w.src, w.dst);
        }
    }
    (schedule, pending)
}

/// Whether the adversary is *realizable* on the threaded runtime.
///
/// The round models deliver an adversary by fiat; the runtime has to
/// produce it from per-process workers and a failure detector, and a
/// receiver can only close a round once every peer's message is
/// delivered **or the peer is suspected** — which requires the peer
/// to actually crash first. A choice where `p` can only progress
/// once `q` crashes while `q` can only reach its crash round once
/// `p` progresses is a waits-for cycle no real execution exhibits.
///
/// Computed as a least fixpoint over "highest round each process can
/// close": `p` closes round `r` when, for every peer `q`, either
/// `q`'s round-`r` wire to `p` is delivered in time (requiring `q`
/// to have closed round `r−1`) or `q` crashes and is suspected
/// (requiring `q` to have closed every round up to its crash). With
/// `t = 1` every choice is realizable; cycles need two victims
/// waiting on each other.
#[must_use]
pub fn realizable(schedule: &CrashSchedule, pending: &PendingChoice, horizon: u32) -> bool {
    let n = schedule.n();
    let crash_round = |q: ProcessId| schedule.crash_of(q).map_or(u32::MAX, |c| c.round.get());
    let target = |p: ProcessId| {
        let c = crash_round(p);
        if c == u32::MAX {
            horizon
        } else {
            c - 1
        }
    };
    let can_close = |closed: &[u32], p: ProcessId, r: u32| -> bool {
        let round = Round::new(r);
        for q in all_processes(n) {
            if q == p {
                continue;
            }
            let cq = crash_round(q);
            if schedule.emits(q, round, p) && !pending.is_withheld(round, q, p) {
                // Delivered in time: q must have entered round r.
                if closed[q.index()] < r - 1 {
                    return false;
                }
            } else {
                // p must suspect q: q crashes after closing its own
                // last round.
                if cq == u32::MAX || closed[q.index()] < cq - 1 {
                    return false;
                }
            }
        }
        true
    };
    let mut closed = vec![0u32; n];
    loop {
        let mut progress = false;
        for p in all_processes(n) {
            while closed[p.index()] < target(p) {
                let r = closed[p.index()] + 1;
                if !can_close(&closed, p, r) {
                    break;
                }
                closed[p.index()] = r;
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    all_processes(n).all(|p| closed[p.index()] >= target(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn skeleton_counts_are_exact() {
        // n=3, t=1, horizon=2: benign + 3 processes × 3 crash rounds.
        assert_eq!(skeletons(3, 1, 2).len(), 10);
        // t=2 adds the 3·3 ordered pairs of distinct processes with
        // 3×3 round choices: 10 + 27 = 37... pairs are unordered in
        // the skeleton, so C(3,2)·9 = 27.
        assert_eq!(skeletons(3, 2, 2).len(), 37);
        assert_eq!(skeletons(3, 0, 2).len(), 1);
    }

    #[test]
    fn benign_skeleton_has_no_choice() {
        let s: Skeleton = vec![None; 3];
        assert!(choice_wires(&s, 2, PlanModel::Rws).is_empty());
        assert!(choice_wires(&s, 2, PlanModel::Rs).is_empty());
    }

    #[test]
    fn rs_restricts_to_crash_round_omissions() {
        // p0 crashes in round 2 of a 2-round horizon: RS offers only
        // its two round-2 wires, omission-only.
        let s: Skeleton = vec![Some(2), None, None];
        let rs = choice_wires(&s, 2, PlanModel::Rs);
        assert_eq!(rs.len(), 2);
        assert!(rs
            .iter()
            .all(|w| w.round == 2 && w.can_omit && !w.can_withhold));
        // RWS adds withholding on those plus the round-1 wires.
        let rws = choice_wires(&s, 2, PlanModel::Rws);
        assert_eq!(rws.len(), 4);
        assert!(rws
            .iter()
            .filter(|w| w.round == 1)
            .all(|w| !w.can_omit && w.can_withhold));
    }

    #[test]
    fn post_horizon_crash_offers_final_round_withholds_under_rws() {
        let s: Skeleton = vec![None, Some(3), None];
        assert!(choice_wires(&s, 2, PlanModel::Rs).is_empty());
        let rws = choice_wires(&s, 2, PlanModel::Rws);
        assert_eq!(rws.len(), 2);
        assert!(rws
            .iter()
            .all(|w| w.round == 2 && !w.can_omit && w.can_withhold));
    }

    #[test]
    fn realize_builds_the_section_5_3_adversary() {
        let s: Skeleton = vec![Some(2), None, None];
        let wires = choice_wires(&s, 2, PlanModel::Rws);
        // Wires sorted by (round, src, dst): r1 p0→p1, r1 p0→p2,
        // r2 p0→p1, r2 p0→p2. Withhold both round-1 wires, omit both
        // round-2 wires.
        let fates = [Fate::Withhold, Fate::Withhold, Fate::Omit, Fate::Omit];
        let (schedule, pending) = realize(&s, &wires, &fates, 2);
        let crash = schedule.crash_of(p(0)).unwrap();
        assert_eq!(crash.round, Round::new(2));
        assert_eq!(crash.sends_to, ProcessSet::empty());
        assert_eq!(pending.len(), 2);
        assert!(pending.is_withheld(Round::FIRST, p(0), p(1)));
        assert!(realizable(&schedule, &pending, 2));
    }

    #[test]
    fn mutual_waiting_is_unrealizable() {
        // p0 and p1 both crash in round 2 with empty sends_to and no
        // pending: each can only close round 1 by suspecting the
        // other, but neither crashes before closing round 1 — a
        // waits-for cycle. (Round-1 wires delivered, so round 1
        // closes; round 2... both crash *in* round 2 so targets are
        // round 1 — realizable. Use round-1 withholds to cut round 1.)
        let mut schedule = CrashSchedule::none(3);
        schedule.crash(
            p(0),
            RoundCrash {
                round: Round::new(2),
                sends_to: ProcessSet::empty(),
            },
        );
        schedule.crash(
            p(1),
            RoundCrash {
                round: Round::new(2),
                sends_to: ProcessSet::empty(),
            },
        );
        let mut pending = PendingChoice::none();
        // p0's and p1's round-1 messages to each other withheld: p0
        // needs to suspect p1 to close round 1, but p1 crashes only
        // in round 2, which needs p1 to close round 1 first — and
        // symmetrically.
        pending.withhold(Round::FIRST, p(0), p(1));
        pending.withhold(Round::FIRST, p(1), p(0));
        assert!(!realizable(&schedule, &pending, 2));
        // Breaking one direction restores realizability.
        let mut one_way = PendingChoice::none();
        one_way.withhold(Round::FIRST, p(0), p(1));
        assert!(realizable(&schedule, &one_way, 2));
    }
}
