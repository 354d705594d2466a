//! Stateless systematic exploration of threaded-runtime executions.
//!
//! Where `ssp-lab`'s fuzzing answers "do 4096 random seeds behave?",
//! this crate answers "does **every inequivalent schedule** behave?"
//! for small instances. Two executions are equivalent when they
//! produce the same canonical [`RunLog`](ssp_model::RunLog) — the
//! delivery-level record both the round models and the threaded
//! runtime emit — and the explorer enumerates exactly one execution
//! per class:
//!
//! * the adversary's freedom is factored into crash skeletons and
//!   per-wire [`Fate`]s (see [`space`]), visited by a
//!   depth-first walk whose frozen prefix acts as a *sleep set*: a
//!   non-default fate is only introduced at wires **after** the last
//!   frozen one, so no fate assignment is reached twice;
//! * the walk is *dynamic* in the DPOR sense: a wire carrying a null
//!   message never branches on omission (a delivered null and an
//!   omitted wire are indistinguishable in the log — both leave no
//!   `Deliver` event), and nullness is read off a cheap round-model
//!   replay of the current node rather than a static approximation;
//! * choices only a fictional adversary could produce — waits-for
//!   cycles between two crashing processes, which no failure-detector
//!   driven execution exhibits — are pruned with their entire
//!   subtree ([`space::realizable`]);
//! * with [`Explorer::run_quotient`], process permutations fixing the
//!   input assignment are quotiented out via `ssp_lab::symmetry`:
//!   only the canonically-least member of each orbit is executed,
//!   carrying its orbit size as a weight, so reported class counts
//!   still match the unquotiented exploration.
//!
//! Every executed class actually runs on the threaded runtime (an
//! exact [`FaultPlan`] realizes the adversary) and is cross-checked
//! against its round-model replay by `ssp_lab`'s conformance gate.
//! Specification violations are collected, the least one (by
//! canonical adversary order) is greedily shrunk, and the result is
//! reported as a [`Witness`] carrying the serializable
//! [`AdversaryRecord`] and the violating run's log.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod space;

use std::collections::BTreeSet;
use std::fmt;

use ssp_lab::symmetry::{pending_orbit, schedule_orbit, stabilizer};
use ssp_lab::{check_threaded_run, ValidityMode};
use ssp_model::{AdversaryRecord, InitialConfig, RunEvent, RunLogObserver, Value};
use ssp_rounds::{
    run_rws_observed, to_record, CrashSchedule, PendingChoice, RoundAlgorithm, RoundCrash,
    RoundModel, RoundProcess, SymmetricAlgorithm,
};
use ssp_runtime::{Backend, ConfigError, FaultPlan, RuntimeBuilder};

use space::{choice_wires, realizable, realize, skeletons, Fate, Skeleton, Wire};

/// Largest supported process count: the fate space is exponential in
/// `n²`, and five processes is already generous for exhaustive work.
pub const MAX_N: usize = 5;

/// Largest supported crash budget.
pub const MAX_T: usize = 2;

/// Why an exploration could not start.
#[derive(Debug)]
pub enum ExploreError {
    /// Instance size outside the supported exhaustive range.
    Bounds {
        /// Requested process count.
        n: usize,
        /// Requested crash budget.
        t: usize,
    },
    /// The threaded runtime rejected a realized plan — a bug in the
    /// realization, surfaced rather than swallowed.
    Driver(ConfigError),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Bounds { n, t } => write!(
                f,
                "instance out of exhaustive range (need 2 ≤ n ≤ {MAX_N}, t ≤ {MAX_T}, t < n; \
                 got n={n}, t={t})"
            ),
            ExploreError::Driver(e) => write!(f, "realized plan rejected by the runtime: {e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

/// A violating execution, shrunk and ready to replay.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The shrunk adversary, in serializable form.
    pub record: AdversaryRecord,
    /// The least violating adversary found, before shrinking.
    pub original: AdversaryRecord,
    /// The specification clause the shrunk run violates.
    pub violation: String,
    /// The shrunk run's canonical log, one JSON event per line.
    pub log_jsonl: String,
    /// Human-readable fault plan realizing the shrunk adversary.
    pub plan: String,
}

/// The result of a completed exploration.
#[derive(Debug)]
pub struct ExploreReport {
    /// Process count.
    pub n: usize,
    /// Crash budget.
    pub t: usize,
    /// Round model explored.
    pub model: RoundModel,
    /// The algorithm's round horizon for this instance.
    pub horizon: u32,
    /// Crash skeletons enumerated.
    pub skeletons: u64,
    /// Inequivalent schedule classes, orbit weights included — equal
    /// to the number of distinct `RunLog`s of the full brute-force
    /// schedule space.
    pub classes: u64,
    /// Classes actually executed on the threaded runtime (equals
    /// `classes` without symmetry; one representative per orbit with).
    pub executed: u64,
    /// Choice nodes pruned as waits-for-unrealizable (subtrees not
    /// counted).
    pub unrealizable: u64,
    /// Executed classes whose log collided with an earlier one — the
    /// explorer's self-check; always 0 unless the pruning is wrong.
    pub duplicates: u64,
    /// Violating classes, orbit weights included.
    pub violations: u64,
    /// Runs where the threaded runtime diverged from its round-model
    /// replay (conformance failures, distinct from spec violations).
    pub divergences: Vec<String>,
    /// The distinct canonical logs of every executed class.
    pub logs: BTreeSet<String>,
    /// The least violating adversary, shrunk, if any class violated.
    pub witness: Option<Witness>,
    /// Whether the exploration stopped at [`Explorer::limit`].
    pub truncated: bool,
}

impl fmt::Display for ExploreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "explored n={} t={} model={} horizon={}: {} skeletons, {} classes \
             ({} executed, {} duplicates), {} unrealizable nodes, {} violations, {} divergences{}",
            self.n,
            self.t,
            self.model,
            self.horizon,
            self.skeletons,
            self.classes,
            self.executed,
            self.duplicates,
            self.unrealizable,
            self.violations,
            self.divergences.len(),
            if self.truncated { " [truncated]" } else { "" },
        )
    }
}

/// Exhaustive explorer for one `(algorithm, configuration)` instance.
///
/// ```
/// use ssp_algos::FloodSet;
/// use ssp_explore::Explorer;
/// use ssp_model::InitialConfig;
/// use ssp_rounds::RoundModel;
///
/// let config = InitialConfig::new(vec![0u64, 1, 2]);
/// let report = Explorer::new(&FloodSet, &config)
///     .t(1)
///     .model(RoundModel::Rs)
///     .run()
///     .unwrap();
/// assert_eq!(report.violations, 0);
/// assert_eq!(report.duplicates, 0);
/// ```
#[derive(Debug)]
pub struct Explorer<'a, V, A> {
    algo: &'a A,
    config: &'a InitialConfig<V>,
    t: usize,
    model: RoundModel,
    limit: Option<u64>,
}

struct Ctx {
    classes: u64,
    executed: u64,
    unrealizable: u64,
    duplicates: u64,
    violations: u64,
    divergences: Vec<String>,
    logs: BTreeSet<String>,
    violating: Vec<(CrashSchedule, PendingChoice, String)>,
    truncated: bool,
}

impl<'a, V, A> Explorer<'a, V, A>
where
    V: Value + Sync,
    A: RoundAlgorithm<V>,
    A::Process: Send + 'static,
    <A::Process as RoundProcess>::Msg: Send + 'static,
{
    /// Starts an explorer with the defaults `t = 1`,
    /// [`RoundModel::Rws`], no class limit. Runs always use
    /// [`Backend::Virtual`]: wall-clock jitter would make enumeration
    /// meaningless.
    #[must_use]
    pub fn new(algo: &'a A, config: &'a InitialConfig<V>) -> Self {
        Explorer {
            algo,
            config,
            t: 1,
            model: RoundModel::Rws,
            limit: None,
        }
    }

    /// Sets the crash budget.
    #[must_use]
    pub fn t(mut self, t: usize) -> Self {
        self.t = t;
        self
    }

    /// Sets the round model whose adversary space is explored.
    #[must_use]
    pub fn model(mut self, model: RoundModel) -> Self {
        self.model = model;
        self
    }

    /// Caps the number of executed classes (exploration reports
    /// `truncated` when the cap is hit).
    #[must_use]
    pub fn limit(mut self, limit: Option<u64>) -> Self {
        self.limit = limit;
        self
    }

    /// Explores every class, executing each exactly once (no symmetry
    /// quotient).
    ///
    /// # Errors
    ///
    /// [`ExploreError`] on unsupported bounds or a runtime-rejected
    /// plan.
    pub fn run(&self) -> Result<ExploreReport, ExploreError> {
        self.explore(false, &[])
    }

    /// Explores every class, executing only the canonically-least
    /// member of each orbit under process permutations that fix the
    /// input assignment; reported counts carry orbit weights, so
    /// `classes` and `violations` match [`Explorer::run`].
    ///
    /// # Errors
    ///
    /// As for [`Explorer::run`].
    pub fn run_quotient(&self) -> Result<ExploreReport, ExploreError>
    where
        A: SymmetricAlgorithm<V>,
    {
        let group = stabilizer(self.config.inputs());
        self.explore(true, &group)
    }

    fn explore(&self, sym: bool, group: &[Vec<usize>]) -> Result<ExploreReport, ExploreError> {
        let n = self.config.n();
        if !(2..=MAX_N).contains(&n) || self.t > MAX_T || self.t >= n {
            return Err(ExploreError::Bounds { n, t: self.t });
        }
        let horizon = self.algo.round_horizon(n, self.t);
        let all = skeletons(n, self.t, horizon);
        let mut ctx = Ctx {
            classes: 0,
            executed: 0,
            unrealizable: 0,
            duplicates: 0,
            violations: 0,
            divergences: Vec::new(),
            logs: BTreeSet::new(),
            violating: Vec::new(),
            truncated: false,
        };
        for skeleton in &all {
            let wires = choice_wires(skeleton, horizon, self.model);
            let mut fates = vec![Fate::Deliver; wires.len()];
            if !self.node(
                &mut ctx, skeleton, &wires, &mut fates, 0, sym, group, horizon,
            )? {
                break;
            }
        }
        let witness = match ctx.violating.iter().min_by_key(|(s, p, _)| to_record(s, p)) {
            Some((s, p, v)) => Some(self.shrink(s, p, v.clone(), horizon)?),
            None => None,
        };
        Ok(ExploreReport {
            n,
            t: self.t,
            model: self.model,
            horizon,
            skeletons: all.len() as u64,
            classes: ctx.classes,
            executed: ctx.executed,
            unrealizable: ctx.unrealizable,
            duplicates: ctx.duplicates,
            violations: ctx.violations,
            divergences: ctx.divergences,
            logs: ctx.logs,
            witness,
            truncated: ctx.truncated,
        })
    }

    /// One DFS node: `fates[..k]` are frozen, everything after is the
    /// default [`Fate::Deliver`]. Records the node's class, then
    /// branches each later wire to each available non-default fate.
    /// Returns `Ok(false)` to stop the walk (class limit reached).
    #[allow(clippy::too_many_arguments)]
    fn node(
        &self,
        ctx: &mut Ctx,
        skeleton: &Skeleton,
        wires: &[Wire],
        fates: &mut [Fate],
        k: usize,
        sym: bool,
        group: &[Vec<usize>],
        horizon: u32,
    ) -> Result<bool, ExploreError> {
        if let Some(limit) = self.limit {
            if ctx.executed >= limit {
                ctx.truncated = true;
                return Ok(false);
            }
        }
        let (schedule, pending) = realize(skeleton, wires, fates, horizon);
        // Waits-for cycles are monotone along the walk: a branch only
        // turns more deliveries off, which only strengthens the cycle.
        // Prune the whole subtree.
        if !realizable(&schedule, &pending, horizon) {
            ctx.unrealizable += 1;
            return Ok(true);
        }
        // Round-model replay of this node — the nullness oracle for
        // every wire still at its default, and the conformance
        // reference for the threaded run.
        let mut obs = RunLogObserver::new(self.config.n());
        run_rws_observed(
            self.algo,
            self.config,
            self.t,
            &schedule,
            &pending,
            &mut obs,
        )
        .expect("explorer-built adversaries satisfy weak round synchrony");
        let replay = obs.into_log();
        let weight = if sym {
            match schedule_orbit(&schedule, group) {
                None => 0,
                Some((s_orbit, stab)) => match pending_orbit(&pending, &stab) {
                    None => 0,
                    Some(p_orbit) => s_orbit * p_orbit,
                },
            }
        } else {
            1
        };
        if weight > 0 {
            ctx.classes += weight;
            ctx.executed += 1;
            let (check, jsonl) = self.execute(&schedule, &pending, horizon)?;
            match check {
                Ok(report) => {
                    if let Some(v) = report.violation {
                        ctx.violations += weight;
                        ctx.violating.push((schedule.clone(), pending.clone(), v));
                    }
                }
                Err(d) => ctx
                    .divergences
                    .push(format!("{}: {d}", to_record(&schedule, &pending))),
            }
            if !ctx.logs.insert(jsonl) {
                ctx.duplicates += 1;
            }
        }
        for j in k..wires.len() {
            let w = &wires[j];
            // A wire whose message is null at this node merges its
            // `Omit` branch into `Deliver`: neither leaves a `Deliver`
            // event, so the logs — and everything downstream of them —
            // coincide. Nullness of wire `j` only depends on earlier
            // wires, all of which agree between this node and the
            // pruned branch.
            let nonnull = replay.events().iter().any(|e| {
                matches!(e, RunEvent::Deliver { src, dst, round: Some(r), .. }
                    if *src == w.src && *dst == w.dst && r.get() == w.round)
            });
            for fate in [Fate::Omit, Fate::Withhold] {
                let available = match fate {
                    Fate::Omit => w.can_omit && nonnull,
                    Fate::Withhold => w.can_withhold,
                    Fate::Deliver => false,
                };
                if !available {
                    continue;
                }
                fates[j] = fate;
                let keep_going =
                    self.node(ctx, skeleton, wires, fates, j + 1, sym, group, horizon)?;
                fates[j] = Fate::Deliver;
                if !keep_going {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Runs one adversary on the threaded runtime and conformance-
    /// checks it, returning the check result and the run's log.
    #[allow(clippy::type_complexity)]
    fn execute(
        &self,
        schedule: &CrashSchedule,
        pending: &PendingChoice,
        horizon: u32,
    ) -> Result<(Result<ssp_lab::RunReport, ssp_lab::Divergence>, String), ExploreError> {
        let plan = FaultPlan::from_adversary(schedule, pending, self.t, horizon, self.model);
        let result = RuntimeBuilder::new(self.algo, self.config)
            .t(self.t)
            .model(self.model)
            .backend(Backend::Virtual)
            .plan(plan)
            .run()
            .map_err(ExploreError::Driver)?;
        let jsonl = result.trace.run_log().to_jsonl();
        let check = check_threaded_run(
            self.algo,
            self.config,
            self.t,
            &result,
            ValidityMode::Uniform,
        );
        Ok((check, jsonl))
    }

    /// Greedy schedule shrinking: repeatedly applies the first
    /// still-violating simplification — drop a withheld wire, drop a
    /// whole crash, or demote a delivered crash-round wire to an
    /// omission — until none applies. Every candidate is strictly
    /// smaller in the canonical record order, so the loop terminates
    /// and the result never moves away from the least witness.
    /// Deterministic: candidates are tried in a fixed order.
    fn shrink(
        &self,
        schedule: &CrashSchedule,
        pending: &PendingChoice,
        violation: String,
        horizon: u32,
    ) -> Result<Witness, ExploreError> {
        let original = to_record(schedule, pending);
        let mut cur_s = schedule.clone();
        let mut cur_p = pending.clone();
        let mut cur_v = violation;
        let (_, mut cur_log) = self.execute(&cur_s, &cur_p, horizon)?;
        loop {
            let mut improved = false;
            for (cand_s, cand_p) in shrink_candidates(&cur_s, &cur_p, horizon) {
                if !realizable(&cand_s, &cand_p, horizon) {
                    continue;
                }
                let (check, jsonl) = self.execute(&cand_s, &cand_p, horizon)?;
                if let Ok(report) = check {
                    if let Some(v) = report.violation {
                        cur_s = cand_s;
                        cur_p = cand_p;
                        cur_v = v;
                        cur_log = jsonl;
                        improved = true;
                        break;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        let plan = FaultPlan::from_adversary(&cur_s, &cur_p, self.t, horizon, self.model);
        Ok(Witness {
            record: to_record(&cur_s, &cur_p),
            original,
            violation: cur_v,
            log_jsonl: cur_log,
            plan: plan.to_string(),
        })
    }
}

/// The one-step simplifications of an adversary, in the deterministic
/// order shrinking tries them.
fn shrink_candidates(
    schedule: &CrashSchedule,
    pending: &PendingChoice,
    horizon: u32,
) -> Vec<(CrashSchedule, PendingChoice)> {
    use ssp_model::process::all_processes;
    let n = schedule.n();
    let mut out = Vec::new();
    for drop in 0..pending.triples().len() {
        let mut p2 = PendingChoice::none();
        for (j, &(r, a, b)) in pending.triples().iter().enumerate() {
            if j != drop {
                p2.withhold(r, a, b);
            }
        }
        out.push((schedule.clone(), p2));
    }
    for v in all_processes(n) {
        if schedule.crash_of(v).is_none() {
            continue;
        }
        let mut s2 = CrashSchedule::none(n);
        for u in all_processes(n) {
            if u != v {
                if let Some(c) = schedule.crash_of(u) {
                    s2.crash(u, c);
                }
            }
        }
        let mut p2 = PendingChoice::none();
        for &(r, a, b) in pending.triples() {
            if a != v {
                p2.withhold(r, a, b);
            }
        }
        out.push((s2, p2));
    }
    for v in all_processes(n) {
        let Some(c) = schedule.crash_of(v) else {
            continue;
        };
        if c.round.get() > horizon {
            continue;
        }
        for q in all_processes(n) {
            if q == v || !c.sends_to.contains(q) {
                continue;
            }
            let mut sends_to = c.sends_to;
            sends_to.remove(q);
            let mut s2 = schedule.clone();
            s2.crash(
                v,
                RoundCrash {
                    round: c.round,
                    sends_to,
                },
            );
            // The demoted wire is no longer emitted, so a withhold of
            // it would be vacuous — drop it along with the delivery.
            let mut p2 = PendingChoice::none();
            for &(r, a, b) in pending.triples() {
                if !(r == c.round && a == v && b == q) {
                    p2.withhold(r, a, b);
                }
            }
            out.push((s2, p2));
        }
    }
    out
}
