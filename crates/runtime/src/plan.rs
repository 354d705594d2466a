//! Seeded fault plans: the deterministic adversary for the threaded
//! runtime.
//!
//! A [`FaultPlan`] is derived from a single `u64` seed and scripts
//! everything the §5.3-style adversary controls:
//!
//! * **who crashes, when, and mid-broadcast where** — per-victim
//!   [`ThreadCrash`] points, including "after k of n sends";
//! * **which links are slow** — per-link, per-round delivery delays
//!   injected through [`crate::net::LinkScript`], chosen so that a
//!   slowed message outlives the whole run (it becomes *pending* in
//!   the §4.1 sense rather than merely late);
//! * **failure-detector timing** — a scripted oracle-notification
//!   matrix (`RWS` plans), so suspicion order is a function of the
//!   seed, not the OS scheduler.
//!
//! Determinism comes from margins, not from a virtual clock: fast
//! links deliver within [`FAST_MAX`], oracle notifications land within
//! [`NOTIFY_BASE`]`..=`[`NOTIFY_BASE`]`+`[`NOTIFY_JITTER`], and slow
//! links take [`SLOW`] — far longer than any run lasts. Under those
//! gaps every wall-clock execution of the same plan produces the same
//! [`crate::RunTrace`].
//!
//! Slowed links are restricted to senders that crash, in rounds
//! `crash_round - 1 ..= crash_round`: exactly the window in which
//! Lemma 4.1 permits a message to end up pending, and narrow enough
//! that receivers can always close their rounds via suspicion (no
//! deadlock).

use core::fmt;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ssp_model::ProcessId;
use ssp_rounds::{CrashSchedule, PendingChoice, RoundModel};

use crate::chaos::ChaosConfig;
use crate::driver::{FdFlavor, RuntimeConfig, Stall, ThreadCrash, WatchdogConfig};
use crate::fd::DegradeMode;
use crate::net::{LinkScript, NetConfig};

/// Maximum delivery delay of an unscripted ("fast") link.
pub const FAST_MAX: Duration = Duration::from_millis(1);

/// Delivery delay of a slowed link — longer than any run, so a slowed
/// message is never received: it is *pending* when its sender crashes.
pub const SLOW: Duration = Duration::from_millis(600);

/// Slowed-link delay used by chaos plans and the Δ-violation scenario.
/// Chaos retransmits and scaled suspicions stretch runs, so the margin
/// that keeps a slowed wire pending must stretch with them.
pub const CHAOS_SLOW: Duration = Duration::from_millis(2500);

/// Minimum oracle-notification delay in `RWS` plans.
pub const NOTIFY_BASE: Duration = Duration::from_millis(25);

/// Maximum extra oracle-notification jitter in `RWS` plans.
pub const NOTIFY_JITTER: Duration = Duration::from_millis(25);

/// How much [`FaultPlan::with_chaos`] stretches oracle-notification
/// delays. The reliable layer can hold an in-window wire back for the
/// whole retransmit budget (~50ms), which overlaps the plain
/// 25–50ms notification band; scaling notifications to 100–200ms
/// restores the gap that makes wall-clock runs margin-deterministic
/// (every wire from a not-yet-suspected sender lands before any
/// suspicion does).
pub const CHAOS_NOTIFY_SCALE: u32 = 4;

/// The fixed seed whose [`FaultPlan`] reproduces the §5.3 anomaly:
/// `A1` violates uniform agreement in `RWS` at `n = 3, t = 1`.
///
/// `FaultPlan::from_seed(SECTION_5_3_SEED, 3, 1, 2, RoundModel::Rws)`
/// crashes `p1` in round 2 before any send, with both of its round-1
/// broadcast links slowed into pending-ness — so `p1` decides its own
/// value and dies while the survivors, never seeing it, fall back to
/// `p2`'s value. See `docs/paper-map.md` for the full mapping.
pub const SECTION_5_3_SEED: u64 = 519;

/// Seed of [`FaultPlan::delta_violation`], the canonical Δ-violation
/// scenario: an `RS` run whose network breaks its own delay bound.
pub const DELTA_VIOLATION_SEED: u64 = 0xde17a;

/// A deterministic, seed-derived fault-injection script for one
/// threaded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The generating seed.
    pub seed: u64,
    /// Number of processes.
    pub n: usize,
    /// Resilience bound (at most `t` victims are scripted).
    pub t: usize,
    /// Round horizon of the algorithm under test.
    pub horizon: u32,
    /// Target round model.
    pub model: RoundModel,
    /// Per-process crash script (`crashes[i]` for process `i`).
    pub crashes: Vec<Option<ThreadCrash>>,
    /// Slowed links as `(src, dst, round)` triples: the round-`round`
    /// wire from `src` to `dst` takes [`SLOW`] to deliver.
    pub slow: Vec<(ProcessId, ProcessId, u32)>,
    /// Oracle-notification delays, `notify[crasher][observer]`
    /// (`RWS` plans only; empty for `RS`).
    pub notify: Vec<Vec<Duration>>,
    /// Chaos faults (loss/duplication/reordering); implies the
    /// reliable-delivery layer. `None` for plain seeded plans.
    pub chaos: Option<ChaosConfig>,
    /// What the synchrony watchdog does on a Δ violation (`RS` only).
    pub degrade: DegradeMode,
    /// Delivery delay of the links in [`Self::slow`].
    pub slow_delay: Duration,
    /// Per-process stall script (heartbeat starvation).
    pub stalls: Vec<Option<Stall>>,
}

impl FaultPlan {
    /// Derives the plan for `seed` at the given system parameters.
    ///
    /// The derivation draws from `StdRng::seed_from_u64(seed)` in a
    /// fixed order, so equal arguments always yield equal plans:
    ///
    /// 1. a victim count in `0..=t` and that many distinct victims;
    /// 2. per victim, a crash round in `1..=horizon+1` (the extra
    ///    round is the "decide then crash" case, which forces
    ///    `after_sends = 0`) and a mid-broadcast cut in `0..=n`;
    /// 3. `RWS` only: a fair coin per emitted wire of each victim in
    ///    rounds `crash_round-1..=crash_round` decides whether that
    ///    link is slowed, and an `n × n` notification matrix is drawn
    ///    from [`NOTIFY_BASE`]` + 0..=`[`NOTIFY_JITTER`].
    ///
    /// # Panics
    ///
    /// Panics if `t ≥ n` or `n` is 0.
    #[must_use]
    pub fn from_seed(seed: u64, n: usize, t: usize, horizon: u32, model: RoundModel) -> Self {
        assert!(n > 0 && t < n, "need 0 < n and t < n");
        let mut rng = StdRng::seed_from_u64(seed);
        let victim_count = rng.gen_range(0..=t);
        let mut avail: Vec<usize> = (0..n).collect();
        let mut victims: Vec<usize> = Vec::with_capacity(victim_count);
        for _ in 0..victim_count {
            victims.push(avail.remove(rng.gen_range(0..avail.len())));
        }

        let mut crashes: Vec<Option<ThreadCrash>> = vec![None; n];
        for &v in &victims {
            let round = rng.gen_range(1..=horizon + 1);
            let after_sends = if round > horizon {
                0 // post-horizon crashes happen after all sends anyway
            } else {
                rng.gen_range(0..=n)
            };
            crashes[v] = Some(ThreadCrash {
                round,
                after_sends,
                sends_to: None,
            });
        }

        let mut slow = Vec::new();
        let mut notify = Vec::new();
        if model == RoundModel::Rws {
            for &v in &victims {
                let crash = crashes[v].expect("victim has a crash");
                let lo = crash.round.saturating_sub(1).max(1);
                let hi = crash.round.min(horizon);
                for r in lo..=hi {
                    for dst in 0..n {
                        if dst == v {
                            continue;
                        }
                        let emitted = r < crash.round || dst < crash.after_sends;
                        if emitted && rng.gen_bool(0.5) {
                            slow.push((ProcessId::new(v), ProcessId::new(dst), r));
                        }
                    }
                }
            }
            let jitter = NOTIFY_JITTER.as_millis() as u64;
            notify = (0..n)
                .map(|_| {
                    (0..n)
                        .map(|_| NOTIFY_BASE + Duration::from_millis(rng.gen_range(0..=jitter)))
                        .collect()
                })
                .collect();
        }

        FaultPlan {
            seed,
            n,
            t,
            horizon,
            model,
            crashes,
            slow,
            notify,
            chaos: None,
            degrade: DegradeMode::Off,
            slow_delay: SLOW,
            stalls: vec![None; n],
        }
    }

    /// Realizes a round-model adversary — a [`CrashSchedule`] plus a
    /// [`PendingChoice`] — as a threaded fault plan, the bridge the
    /// exploration layer drives:
    ///
    /// * every scheduled [`ssp_rounds::RoundCrash`] becomes a set-mode
    ///   [`ThreadCrash`] emitting exactly to its `sends_to` members
    ///   (post-horizon crashes stay prefix crashes with no cut — the
    ///   process completes every round and then dies);
    /// * every withheld `(round, src, dst)` triple becomes a slowed
    ///   link, so the wire is emitted but outlives the run — *pending*
    ///   in the §4.1 sense;
    /// * `RWS` plans get a *uniform* [`NOTIFY_BASE`] oracle matrix
    ///   (no jitter): the plan is a function of the adversary alone,
    ///   never of a seed, which is what makes explored executions
    ///   byte-comparable across runs.
    ///
    /// # Panics
    ///
    /// Panics if `t ≥ n`, the schedule crashes more than `t`
    /// processes, or a crash round exceeds `horizon + 1`.
    #[must_use]
    pub fn from_adversary(
        schedule: &CrashSchedule,
        pending: &PendingChoice,
        t: usize,
        horizon: u32,
        model: RoundModel,
    ) -> Self {
        let n = schedule.n();
        assert!(n > 0 && t < n, "need 0 < n and t < n");
        assert!(
            schedule.fault_count() <= t,
            "schedule crashes {} > t = {t}",
            schedule.fault_count()
        );
        let mut crashes: Vec<Option<ThreadCrash>> = vec![None; n];
        for (p, slot) in crashes.iter_mut().enumerate() {
            let Some(crash) = schedule.crash_of(ProcessId::new(p)) else {
                continue;
            };
            let round = crash.round.get();
            assert!(round <= horizon + 1, "crash round {round} beyond horizon");
            *slot = Some(if round > horizon {
                // Decide-then-crash: completes every round first.
                ThreadCrash::prefix(round, 0)
            } else {
                ThreadCrash::sending_to(round, crash.sends_to)
            });
        }
        let slow = pending
            .triples()
            .iter()
            .map(|&(r, src, dst)| (src, dst, r.get()))
            .collect();
        let notify = match model {
            RoundModel::Rs => Vec::new(),
            RoundModel::Rws => vec![vec![NOTIFY_BASE; n]; n],
        };
        FaultPlan {
            seed: 0,
            n,
            t,
            horizon,
            model,
            crashes,
            slow,
            notify,
            chaos: None,
            degrade: DegradeMode::Off,
            slow_delay: SLOW,
            stalls: vec![None; n],
        }
    }

    /// Adds chaos faults on top of the plan: every wire is subject to
    /// seed-deterministic loss/duplication/reordering and travels over
    /// the reliable-delivery layer. Slowed links stretch to
    /// [`CHAOS_SLOW`] and oracle notifications scale by
    /// [`CHAOS_NOTIFY_SCALE`] so the determinism margins survive the
    /// retransmit budget.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self.slow_delay = CHAOS_SLOW;
        for row in &mut self.notify {
            for d in row {
                *d *= CHAOS_NOTIFY_SCALE;
            }
        }
        self
    }

    /// Sets the watchdog's degradation mode (effective in `RS` plans).
    #[must_use]
    pub fn with_degrade(mut self, degrade: DegradeMode) -> Self {
        self.degrade = degrade;
        self
    }

    /// Scripts a heartbeat starvation for one process.
    #[must_use]
    pub fn with_stall(mut self, p: ProcessId, stall: Stall) -> Self {
        self.stalls[p.index()] = Some(stall);
        self
    }

    /// The canonical Δ-violation scenario: an `RS` plan whose network
    /// silently breaks its own delay bound, re-creating the §5.3 shape
    /// *under the model that is supposed to exclude it*. `p1`'s round-1
    /// broadcast links are slowed far past Δ and `p1` crashes in round
    /// 2 before relaying — so `p1` decides its own value on its fast
    /// self-delivery while the survivors, never seeing it, decide
    /// another. With the watchdog off this reproduces a uniform-
    /// agreement violation inside "RS"; [`DegradeMode::Rws`] instead
    /// downgrades the run at the first over-Δ wire, which is admissible
    /// because the crash satisfies Lemma 4.1.
    #[must_use]
    pub fn delta_violation() -> Self {
        let n = 3;
        let mut crashes = vec![None; n];
        crashes[0] = Some(ThreadCrash {
            round: 2,
            after_sends: 0,
            sends_to: None,
        });
        FaultPlan {
            seed: DELTA_VIOLATION_SEED,
            n,
            t: 1,
            horizon: 2,
            model: RoundModel::Rs,
            crashes,
            slow: vec![
                (ProcessId::new(0), ProcessId::new(1), 1),
                (ProcessId::new(0), ProcessId::new(2), 1),
            ],
            notify: Vec::new(),
            chaos: None,
            degrade: DegradeMode::Off,
            slow_delay: CHAOS_SLOW,
            stalls: vec![None; n],
        }
    }

    /// The canonical §5.3 plan: [`SECTION_5_3_SEED`] at `n = 3, t = 1`
    /// with `A1`'s horizon of 2 rounds, in `RWS`.
    #[must_use]
    pub fn section_5_3() -> Self {
        FaultPlan::from_seed(SECTION_5_3_SEED, 3, 1, 2, RoundModel::Rws)
    }

    /// The per-link delivery script realizing [`Self::slow`]: the
    /// `k`-th wire on a link is the round-`k+1` message (round drivers
    /// emit exactly one wire per link per round, in round order).
    #[must_use]
    pub fn link_script(&self) -> LinkScript {
        let mut script = LinkScript::new();
        for &(src, dst, round) in &self.slow {
            script.set(src, dst, (round - 1) as usize, self.slow_delay);
        }
        script
    }

    /// The full [`RuntimeConfig`] realizing this plan: scripted
    /// network (plus chaos faults if enabled), scripted crashes and
    /// stalls, watchdog settings, and (for `RWS`) the scripted oracle.
    #[must_use]
    pub fn runtime_config(&self) -> RuntimeConfig {
        let mut net = NetConfig::bounded(FAST_MAX, self.seed).with_script(self.link_script());
        if let Some(chaos) = self.chaos {
            net = net.with_chaos(chaos);
        }
        let notify_scale = self.chaos.map_or(1, |_| CHAOS_NOTIFY_SCALE);
        let n = self.crashes.len();
        let (base, notify_script) = match self.model {
            RoundModel::Rs => (RuntimeConfig::ss_flavor(n, self.seed), None),
            RoundModel::Rws => (
                RuntimeConfig {
                    fd: FdFlavor::Oracle {
                        min_notify: NOTIFY_BASE * notify_scale,
                        max_notify: (NOTIFY_BASE + NOTIFY_JITTER) * notify_scale,
                    },
                    ..RuntimeConfig::sp_flavor(n, self.seed)
                },
                Some(self.notify.clone()),
            ),
        };
        RuntimeConfig {
            net,
            crashes: self.crashes.clone(),
            stalls: self.stalls.clone(),
            watchdog: WatchdogConfig {
                delta: None,
                degrade: self.degrade,
            },
            notify_script,
            ..base
        }
    }

    /// Number of scripted victims.
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.crashes.iter().filter(|c| c.is_some()).count()
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan[seed={} n={} t={} horizon={} model={}",
            self.seed, self.n, self.t, self.horizon, self.model
        )?;
        for (i, c) in self.crashes.iter().enumerate() {
            if let Some(c) = c {
                match c.sends_to {
                    Some(set) => {
                        write!(f, " crash({}@r{}→{})", ProcessId::new(i), c.round, set)?;
                    }
                    None => write!(
                        f,
                        " crash({}@r{}+{})",
                        ProcessId::new(i),
                        c.round,
                        c.after_sends
                    )?,
                }
            }
        }
        for &(src, dst, r) in &self.slow {
            write!(f, " slow({src}→{dst}@r{r})")?;
        }
        for (i, s) in self.stalls.iter().enumerate() {
            if let Some(s) = s {
                write!(
                    f,
                    " stall({}@r{}+{}ms)",
                    ProcessId::new(i),
                    s.round,
                    s.duration.as_millis()
                )?;
            }
        }
        if let Some(c) = self.chaos {
            write!(
                f,
                " chaos(loss={} dup={} reorder={}‰)",
                c.loss_pm, c.dup_pm, c.reorder_pm
            )?;
        }
        if self.degrade != DegradeMode::Off {
            write!(f, " degrade={}", self.degrade)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        for seed in 0..32 {
            let a = FaultPlan::from_seed(seed, 4, 2, 3, RoundModel::Rws);
            let b = FaultPlan::from_seed(seed, 4, 2, 3, RoundModel::Rws);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn plans_respect_bounds() {
        for seed in 0..64 {
            for model in [RoundModel::Rs, RoundModel::Rws] {
                let plan = FaultPlan::from_seed(seed, 4, 2, 3, model);
                assert!(plan.fault_count() <= 2);
                for c in plan.crashes.iter().flatten() {
                    assert!((1..=4).contains(&c.round));
                    assert!(c.after_sends <= 4);
                }
                for &(src, dst, r) in &plan.slow {
                    assert_ne!(src, dst, "self-links are internal");
                    let c = plan.crashes[src.index()].expect("only victims are slowed");
                    assert!(r + 1 >= c.round && r <= c.round, "Lemma 4.1 window");
                    assert!(r >= 1 && r <= plan.horizon);
                }
                if model == RoundModel::Rs {
                    assert!(plan.slow.is_empty(), "RS forbids pending messages");
                    assert!(plan.notify.is_empty());
                }
            }
        }
    }

    #[test]
    fn section_5_3_plan_has_the_paper_shape() {
        let plan = FaultPlan::section_5_3();
        // p1 finishes round 1 (deciding its own value), crashes in
        // round 2 before relaying, and both of its round-1 broadcast
        // wires are slowed into pending-ness.
        let crash = plan.crashes[0].expect("p1 crashes");
        assert_eq!(crash.round, 2);
        assert!(crash.after_sends <= 1, "no round-2 relay escapes");
        for dst in [1, 2] {
            assert!(
                plan.slow
                    .contains(&(ProcessId::new(0), ProcessId::new(dst), 1)),
                "round-1 wire p1→p{} must be withheld: {plan}",
                dst + 1
            );
        }
        assert_eq!(plan.crashes[1], None);
        assert_eq!(plan.crashes[2], None);
    }

    #[test]
    fn link_script_maps_rounds_to_link_indices() {
        let plan = FaultPlan::section_5_3();
        let script = plan.link_script();
        assert_eq!(
            script.delay(ProcessId::new(0), ProcessId::new(1), 0),
            Some(SLOW),
            "round 1 = link message 0"
        );
    }

    #[test]
    fn display_mentions_crash_and_slow() {
        let plan = FaultPlan::section_5_3();
        let s = plan.to_string();
        assert!(s.contains("seed=519"), "{s}");
        assert!(s.contains("crash(p1@r2"), "{s}");
        assert!(s.contains("slow(p1→p2@r1)"), "{s}");
        assert!(!s.contains("chaos"), "plain plans print no chaos");
        assert!(!s.contains("degrade"), "Off is the silent default");
    }

    #[test]
    fn from_adversary_realizes_schedule_and_pending() {
        use ssp_model::{ProcessSet, Round};
        use ssp_rounds::RoundCrash;

        // The §5.3 adversary, spelled as a round-model schedule: p1
        // crashes in round 2 reaching nobody, both round-1 broadcasts
        // withheld.
        let mut schedule = CrashSchedule::none(3);
        schedule.crash(
            ProcessId::new(0),
            RoundCrash {
                round: Round::new(2),
                sends_to: ProcessSet::empty(),
            },
        );
        let mut pending = PendingChoice::none();
        pending.withhold(Round::FIRST, ProcessId::new(0), ProcessId::new(1));
        pending.withhold(Round::FIRST, ProcessId::new(0), ProcessId::new(2));
        let plan = FaultPlan::from_adversary(&schedule, &pending, 1, 2, RoundModel::Rws);
        assert_eq!(
            plan.crashes[0],
            Some(ThreadCrash::sending_to(2, ProcessSet::empty()))
        );
        assert_eq!(plan.crashes[1], None);
        assert_eq!(
            plan.slow,
            vec![
                (ProcessId::new(0), ProcessId::new(1), 1),
                (ProcessId::new(0), ProcessId::new(2), 1),
            ]
        );
        // Uniform, jitter-free oracle: the plan is a function of the
        // adversary alone, so explored runs are byte-comparable.
        assert_eq!(plan.notify, vec![vec![NOTIFY_BASE; 3]; 3]);
        plan.runtime_config().validate(3).unwrap();
        let s = plan.to_string();
        assert!(s.contains("crash(p1@r2→{})"), "{s}");
        assert!(s.contains("slow(p1→p2@r1)"), "{s}");

        // A post-horizon crash stays a prefix crash — the process
        // completes every round and then dies.
        let mut late = CrashSchedule::none(3);
        late.crash(
            ProcessId::new(2),
            RoundCrash {
                round: Round::new(3),
                sends_to: ProcessSet::full(3),
            },
        );
        let plan = FaultPlan::from_adversary(&late, &PendingChoice::none(), 1, 2, RoundModel::Rs);
        assert_eq!(plan.crashes[2], Some(ThreadCrash::prefix(3, 0)));
        assert!(plan.slow.is_empty(), "RS forbids pending messages");
        assert!(plan.notify.is_empty());
        plan.runtime_config().validate(3).unwrap();
    }

    #[test]
    fn with_chaos_stretches_margins_and_prints() {
        let chaos = ChaosConfig {
            loss_pm: 300,
            dup_pm: 100,
            reorder_pm: 50,
        };
        let plan = FaultPlan::section_5_3().with_chaos(chaos);
        assert_eq!(plan.slow_delay, CHAOS_SLOW);
        for row in &plan.notify {
            for d in row {
                assert!(*d >= NOTIFY_BASE * CHAOS_NOTIFY_SCALE);
                assert!(*d <= (NOTIFY_BASE + NOTIFY_JITTER) * CHAOS_NOTIFY_SCALE);
            }
        }
        let config = plan.runtime_config();
        assert_eq!(config.net.chaos(), Some(chaos));
        assert!(plan.to_string().contains("chaos(loss=300"), "{plan}");
        // The stretched margins must still satisfy the config invariants.
        config.validate(plan.n).unwrap();
    }

    #[test]
    fn delta_violation_plan_violates_its_own_bound() {
        let plan = FaultPlan::delta_violation();
        assert_eq!(plan.model, RoundModel::Rs);
        let config = plan.runtime_config();
        config.validate(plan.n).unwrap();
        // The scripted slow links exceed the watchdog's auto Δ — that
        // is the whole point of the scenario.
        assert!(plan.slow_delay > config.effective_delta());
        assert_eq!(plan.slow.len(), 2);
        let s = plan.with_degrade(DegradeMode::Rws).to_string();
        assert!(s.contains("degrade=rws"), "{s}");
    }

    #[test]
    fn stalls_ride_through_to_the_config() {
        let stall = Stall {
            round: 1,
            duration: Duration::from_millis(150),
        };
        let plan =
            FaultPlan::from_seed(0, 3, 1, 2, RoundModel::Rs).with_stall(ProcessId::new(1), stall);
        let config = plan.runtime_config();
        assert_eq!(config.stalls[1], Some(stall));
        assert!(plan.to_string().contains("stall(p2@r1+150ms)"), "{plan}");
    }
}
