//! The sharded multi-group engine: a key-hash [`GroupRouter`]
//! partitions the key space over `G` independent consensus groups, and
//! [`serve_sharded`] drives all of them in lock-step ticks — each
//! group is exactly the per-group pipeline that [`serve`](crate::serve)
//! used to be (and still is: `serve` *is* `serve_sharded` with one
//! group).
//!
//! Per tick the sharded engine (1) polls the shard-aware workload
//! once, routing single-key commands to their owning group's proposer
//! and registering cross-shard transactions in the transaction table,
//! (2) runs **one consensus instance per active group** — own
//! splitmix-derived seed stream, own fault plan/chaos/degrade, own
//! proposer and replicated store — and (3) resolves ready cross-shard
//! transactions by non-blocking atomic commit over the owning groups
//! ([`ssp_commit::run_live_nbac`]).
//!
//! Cross-shard commit is the §3 protocol made operational: a
//! transaction's [`Op::Prepare`] marker rides through each owning
//! group's consensus like any command; a group *deciding* the marker
//! is its `Yes` vote, failing to decide it within the prepare patience
//! is `No`. The votes then run one audited vote-flood exchange —
//! [`VoteFlood`](ssp_commit::VoteFlood) under `RS` (SDD-boosted
//! non-triviality), [`VoteFloodWs`](ssp_commit::VoteFloodWs) under
//! `RWS` — and the typed [`CommitOutcome`] folds into exactly-once
//! application: `Commit` applies every operation in its owning group,
//! `Abort` applies none, and either way the client is acknowledged
//! exactly once. Every exchange is audited against the NBAC
//! specification ([`check_nbac`](ssp_commit::check_nbac)); a violation
//! surfaces through [`ShardedReport::cross_violation`] and the CLI
//! exits nonzero on it, same as a consensus audit violation.
//!
//! Groups are concurrent process sets: under the virtual backend the
//! sharded run's simulated elapsed time is the **sum over ticks of the
//! slowest group's instance time**, so `G` groups deciding in parallel
//! serve ~`G`× the commands per simulated second — the scaling
//! `scripts/bench_snapshot.sh` measures.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use ssp_commit::{run_live_nbac, CommitOutcome, NbacFaults, NbacViolation};
use ssp_lab::{audit_instance, InstanceAudit, ValidityMode};
use ssp_model::{InitialConfig, TaggedRunLog};
use ssp_rounds::{RoundAlgorithm, RoundProcess};
use ssp_runtime::{Backend, ConfigError, RuntimeBuilder, ThreadedOutcome};

use crate::command::{Batch, ClientRequest, Command, CommandId, KvStore, Op, Transaction};
use crate::engine::{instance_runtime, instance_seed, EngineConfig, EngineCrash, EngineReport};
use crate::external::ExternalSource;
use crate::proposer::Proposer;
use crate::stats::{CrossShardStats, EngineStats, ShardedStats};
use crate::workload::Workload;

/// Reserved client id for prepare-marker commands (the workload never
/// allocates client ids this high).
const PREPARE_CLIENT: u32 = u32::MAX;

/// Salt separating cross-shard NBAC fault seeds from every other
/// consumer of the engine seed.
const TX_FAULT_SALT: u64 = 0x7c05_517e_6bac_f417;

/// Salt separating group seed streams from instance seed streams.
const GROUP_SEED_SALT: u64 = 0x51a2_de11_c0de_5eed;

/// Stateless key-hash partitioner: assigns every key of the 32-bit key
/// space to one of `groups` consensus groups by splitmix64 hash.
///
/// One group is the identity partition — every key maps to group 0 —
/// which is what keeps the single-group engine a special case rather
/// than a separate code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupRouter {
    groups: usize,
}

impl GroupRouter {
    /// A router over `groups` groups.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero — construct from a validated
    /// [`ShardedConfig`] to get the typed
    /// [`ConfigError::ShardCountZero`] instead.
    #[must_use]
    pub fn new(groups: usize) -> Self {
        assert!(groups >= 1, "a router needs at least one group");
        GroupRouter { groups }
    }

    /// The group owning `key`. Stable per `(key, groups)`.
    #[must_use]
    pub fn group_of(&self, key: u32) -> usize {
        if self.groups == 1 {
            return 0;
        }
        #[allow(clippy::cast_possible_truncation)]
        {
            (instance_seed(GROUP_SEED_SALT, u64::from(key)) % self.groups as u64) as usize
        }
    }

    /// The sorted, deduplicated set of groups owning the transaction's
    /// keys.
    ///
    /// # Panics
    ///
    /// Panics if the transaction carries a nested
    /// [`Op::Prepare`] marker — markers are engine-internal.
    #[must_use]
    pub fn owners(&self, tx: &Transaction) -> Vec<usize> {
        let mut owners: Vec<usize> = tx.ops.iter().map(|op| self.group_of(op_key(op))).collect();
        owners.sort_unstable();
        owners.dedup();
        owners
    }
}

/// The key an operation addresses.
///
/// # Panics
///
/// Panics on [`Op::Prepare`] — markers carry a transaction index, not
/// a key, and are never routed.
fn op_key(op: &Op) -> u32 {
    match *op {
        Op::Put { key, .. } | Op::Delete { key } => key,
        Op::Prepare { tx } => panic!("prepare marker for tx {tx} has no routable key"),
    }
}

/// Derives group `g`'s engine seed. Group 0 uses the engine seed
/// verbatim — so a one-group sharded engine replays the exact instance
/// seed stream of the unsharded engine — and every other group gets a
/// well-separated splitmix derivation.
#[must_use]
pub fn group_seed(seed: u64, group: u64) -> u64 {
    if group == 0 {
        seed
    } else {
        instance_seed(seed ^ GROUP_SEED_SALT, group)
    }
}

/// Configuration of a sharded engine run: the per-group pipeline
/// template plus the sharding knobs.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Per-group pipeline template: `n`, `t`, model, per-group
    /// instance budget, seed (group streams derive from it), faults,
    /// chaos, degrade, batching, backend — everything
    /// [`serve`](crate::serve) takes. Scripted
    /// [`crashes`](EngineConfig::crashes) apply to *every* group (they
    /// are instance/process-scoped); use
    /// [`group_crashes`](ShardedConfig::group_crashes) to pin one to a
    /// single group.
    pub engine: EngineConfig,
    /// Number of consensus groups `G` the key space is partitioned
    /// over.
    pub shards: usize,
    /// Fraction of client submissions that are cross-shard
    /// transactions. Must match the workload's rate; kept here for
    /// validation and reporting.
    pub cross_shard_rate: f64,
    /// Ticks a registered transaction waits for a group to decide its
    /// prepare marker before that group's vote is recorded as `No`.
    pub prepare_patience: u64,
    /// Scripted crashes pinned to one group: `(group, crash)`.
    pub group_crashes: Vec<(usize, EngineCrash)>,
}

/// With an [`ExternalSource`] attached: how long the engine idles
/// (seed workload quiet, proposers empty, transactions resolved, no
/// admissions arriving) before it stops serving. Real time — external
/// clients live on the wall clock even when the instances run on the
/// virtual one.
const EXTERNAL_IDLE_TIMEOUT: Duration = Duration::from_secs(2);

impl ShardedConfig {
    /// A sharded run over `shards` groups with no cross-shard traffic
    /// and a prepare patience of 8 ticks.
    #[must_use]
    pub fn new(engine: EngineConfig, shards: usize) -> Self {
        ShardedConfig {
            engine,
            shards,
            cross_shard_rate: 0.0,
            prepare_patience: 8,
            group_crashes: Vec::new(),
        }
    }

    /// Validates the sharding knobs.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ShardCountZero`] for `shards == 0`;
    /// [`ConfigError::CrossShardRateOutOfRange`] when the rate is not
    /// a probability; [`ConfigError::CrossShardRateWithoutShards`]
    /// when a positive rate is configured over a single group (there
    /// is no second group for a transaction to span).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::ShardCountZero);
        }
        let rate_pm = rate_pm(self.cross_shard_rate);
        if !(0.0..=1.0).contains(&self.cross_shard_rate) {
            return Err(ConfigError::CrossShardRateOutOfRange { rate_pm });
        }
        if self.cross_shard_rate > 0.0 && self.shards < 2 {
            return Err(ConfigError::CrossShardRateWithoutShards { rate_pm });
        }
        Ok(())
    }
}

/// A probability rendered as integral per-mille, for typed error arms
/// that must stay `Eq`.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub fn rate_pm(rate: f64) -> i64 {
    (rate * 1000.0).round() as i64
}

/// Everything one sharded run produced.
#[derive(Debug)]
pub struct ShardedReport<M> {
    /// Sharded statistics: per-group deterministic cores, their
    /// order-invariant aggregate, and the cross-shard commit counters.
    pub stats: ShardedStats,
    /// One full per-group report (stats, audits, tagged run logs,
    /// replicated store), group order. A one-group sharded run's
    /// `groups[0]` is byte-for-byte the unsharded
    /// [`EngineReport`].
    pub groups: Vec<EngineReport<M>>,
    /// First NBAC audit violation across all cross-shard exchanges —
    /// `Some` must fail the serving command, exactly like a consensus
    /// audit violation.
    pub cross_violation: Option<NbacViolation>,
}

/// One registered cross-shard transaction in flight.
struct TxState {
    tx: Transaction,
    owners: Vec<usize>,
    /// Parallel to `owners`: `None` until the group voted.
    votes: Vec<Option<bool>>,
    registered_tick: u64,
    resolved: bool,
}

/// Per-group pipeline state — the mutable half of what `serve` used to
/// keep in its locals.
struct Group {
    cfg: EngineConfig,
    proposer: Proposer,
    kv: KvStore,
    stats: EngineStats,
    instance: u64,
}

/// The cross-shard transaction table: every registered transaction
/// (its index is the `tx` of its prepare markers), the commit
/// counters, and the first NBAC audit violation.
#[derive(Default)]
struct TxTable {
    txs: Vec<TxState>,
    stats: CrossShardStats,
    first_violation: Option<NbacViolation>,
}

impl TxTable {
    /// Registers transaction `tx` over its owning groups: one prepare
    /// marker queued in each owner's proposer (its decision is that
    /// group's `Yes` vote), then the table entry, registered at `tick`.
    fn register(&mut self, tx: Transaction, owners: Vec<usize>, groups: &mut [Group], tick: u64) {
        #[allow(clippy::cast_possible_truncation)]
        let index = self.txs.len() as u32;
        for &g in &owners {
            groups[g].proposer.submit(Command {
                id: CommandId {
                    client: PREPARE_CLIENT,
                    seq: index,
                },
                op: Op::Prepare { tx: index },
            });
        }
        self.stats.submitted += 1;
        self.txs.push(TxState {
            votes: vec![None; owners.len()],
            owners,
            tx,
            registered_tick: tick,
            resolved: false,
        });
    }

    /// Records group `g`'s `Yes` vote for a decided prepare marker (or
    /// a late arrival after resolution).
    fn record_prepare(&mut self, g: usize, tx: u32) {
        let state = &mut self.txs[tx as usize];
        if state.resolved {
            self.stats.late_prepares += 1;
            return;
        }
        if let Some(slot) = state.owners.iter().position(|&o| o == g) {
            if state.votes[slot].is_none() {
                state.votes[slot] = Some(true);
                self.stats.prepares_decided += 1;
            }
        }
    }

    /// Resolves every transaction whose votes are complete (voting
    /// `No` for owners past the prepare patience; with `force`, for
    /// every missing vote): runs the audited NBAC exchange and folds
    /// the typed outcome into exactly-once application.
    fn resolve(
        &mut self,
        tick: u64,
        force: bool,
        cfg: &ShardedConfig,
        groups: &mut [Group],
        workload: &mut Workload,
        source: &mut dyn ExternalSource,
    ) {
        let router = GroupRouter::new(cfg.shards);
        let seeded_faults =
            cfg.engine.faults == crate::engine::FaultMode::Seeded || cfg.engine.chaos.is_some();
        let cross = &mut self.stats;
        for (index, state) in self.txs.iter_mut().enumerate() {
            if state.resolved {
                continue;
            }
            let expired = tick.saturating_sub(state.registered_tick) >= cfg.prepare_patience;
            if force || expired {
                for vote in &mut state.votes {
                    if vote.is_none() {
                        *vote = Some(false);
                        cross.timeout_no_votes += 1;
                    }
                }
            }
            if !state.votes.iter().all(Option::is_some) {
                continue;
            }
            let votes: Vec<bool> = state.votes.iter().map(|v| v.unwrap_or(false)).collect();
            let faults = if seeded_faults {
                NbacFaults::from_seed(
                    instance_seed(cfg.engine.seed ^ TX_FAULT_SALT, index as u64),
                    state.owners.len(),
                    cfg.engine.model,
                )
            } else {
                NbacFaults::none(state.owners.len())
            };
            let run = run_live_nbac(&votes, cfg.engine.model, &faults);
            if run.votes_survived {
                cross.votes_survived += 1;
            }
            if let Some(violation) = run.violation {
                cross.nbac_violations += 1;
                self.first_violation.get_or_insert(violation);
            }
            match run.outcome {
                CommitOutcome::Commit => {
                    cross.committed += 1;
                    for op in &state.tx.ops {
                        groups[router.group_of(op_key(op))].kv.apply(op);
                    }
                }
                CommitOutcome::Abort => cross.aborted += 1,
            }
            workload.acknowledge(state.tx.id);
            if state.tx.id.is_external() {
                // External transactions ack with resolution ticks in
                // the round slot — the cross-shard client-latency
                // analogue of a single command's decision round.
                #[allow(clippy::cast_possible_truncation)]
                source.acknowledge(
                    state.tx.id,
                    tick,
                    tick.saturating_sub(state.registered_tick) as u32,
                );
            }
            state.resolved = true;
        }
    }
}

/// Drains the external source once and routes every admitted
/// submission: single-key commands to the owning group's external
/// queue (ids already decided anywhere re-ack instead of re-admit —
/// the exactly-once guarantee a resubmission after reconnect relies
/// on), multi-group submissions into the cross-shard transaction
/// table. Returns whether anything arrived.
fn drain_external(
    source: &mut dyn ExternalSource,
    router: GroupRouter,
    groups: &mut [Group],
    table: &mut TxTable,
    batch_max: usize,
    tick: u64,
) -> bool {
    let requests = source.drain(batch_max.max(1) * groups.len().max(1));
    if requests.is_empty() {
        return false;
    }
    for request in requests {
        match request {
            ClientRequest::Single(cmd) => {
                let g = router.group_of(op_key(&cmd.op));
                if let Some((instance, round)) = groups[g].proposer.decided_at(cmd.id) {
                    source.acknowledge(cmd.id, instance, round);
                } else {
                    groups[g].proposer.submit_external(cmd);
                }
            }
            ClientRequest::Cross(tx) => {
                if !table.txs.iter().any(|s| s.tx.id == tx.id) {
                    let owners = router.owners(&tx);
                    table.register(tx, owners, groups, tick);
                }
            }
        }
    }
    true
}

/// Runs the sharded replicated state-machine service: `G` independent
/// per-group consensus pipelines over one shard-aware workload, with
/// cross-shard transactions resolved by audited non-blocking atomic
/// commit. The single shared audit thread certifies every group's
/// every instance in the background, exactly as the unsharded engine
/// does.
///
/// With one group this **is** [`serve`](crate::serve) — same instance
/// seed stream, same loop structure, byte-identical deterministic
/// stats and run logs.
///
/// # Errors
///
/// Returns the typed [`ConfigError`] if the sharding knobs fail
/// [`ShardedConfig::validate`] or any instance's runtime configuration
/// fails validation.
///
/// # Panics
///
/// Panics if a decided batch violates exactly-once commitment, if a
/// cross-shard workload was built with a different shard count than
/// the engine (the routers must agree), or if a worker or the audit
/// thread panics.
#[allow(clippy::missing_panics_doc)]
pub fn serve_sharded<A>(
    algo: &A,
    cfg: &ShardedConfig,
    workload: &mut Workload,
) -> Result<ShardedReport<<A::Process as RoundProcess>::Msg>, ConfigError>
where
    A: RoundAlgorithm<Batch> + Sync,
    A::Process: Send + 'static,
    <A::Process as RoundProcess>::Msg: Clone + Send + 'static,
{
    serve_sharded_inner(algo, cfg, workload, None)
}

/// [`serve_sharded`] with an [`ExternalSource`] attached: each tick the
/// loop drains admitted client submissions, routes single-key commands
/// to the owning group's proposer ([`Proposer::submit_external`] dedup
/// makes resubmission idempotent) and multi-group submissions through
/// the [`GroupRouter`] as cross-shard transactions, rides undecided
/// externals as a *tail* appended to every proposal — the
/// seed-replayed proposal prefixes stay byte-identical — and
/// acknowledges each decided command back through the source with its
/// `(instance, round)` decision coordinates.
///
/// With an inert source this is exactly [`serve_sharded`]; a draining
/// run with nothing runnable — every group idle or out of instance
/// budget — whose source is not [`exhausted`](ExternalSource::exhausted)
/// idles up to 2 s of wall-clock time for more admissions before
/// stopping.
///
/// # Errors
///
/// Same as [`serve_sharded`].
#[allow(clippy::missing_panics_doc)]
pub fn serve_sharded_with<A>(
    algo: &A,
    cfg: &ShardedConfig,
    workload: &mut Workload,
    source: &mut dyn ExternalSource,
) -> Result<ShardedReport<<A::Process as RoundProcess>::Msg>, ConfigError>
where
    A: RoundAlgorithm<Batch> + Sync,
    A::Process: Send + 'static,
    <A::Process as RoundProcess>::Msg: Clone + Send + 'static,
{
    serve_sharded_inner(algo, cfg, workload, Some(source))
}

/// The inert source behind [`serve_sharded`]: nothing to drain,
/// exhausted from the start, so the serving loop never idles for it.
struct NullSource;

impl ExternalSource for NullSource {
    fn drain(&mut self, _max: usize) -> Vec<ClientRequest> {
        Vec::new()
    }

    fn acknowledge(&mut self, _id: CommandId, _instance: u64, _round: u32) {}

    fn exhausted(&self) -> bool {
        true
    }

    fn stats(&self) -> ssp_runtime::GatewayStats {
        ssp_runtime::GatewayStats::default()
    }
}

#[allow(clippy::missing_panics_doc, clippy::too_many_lines)]
fn serve_sharded_inner<A>(
    algo: &A,
    cfg: &ShardedConfig,
    workload: &mut Workload,
    source: Option<&mut dyn ExternalSource>,
) -> Result<ShardedReport<<A::Process as RoundProcess>::Msg>, ConfigError>
where
    A: RoundAlgorithm<Batch> + Sync,
    A::Process: Send + 'static,
    <A::Process as RoundProcess>::Msg: Clone + Send + 'static,
{
    cfg.validate()?;
    let mut null = NullSource;
    let attached = source.is_some();
    let source: &mut dyn ExternalSource = match source {
        Some(src) => src,
        None => &mut null,
    };
    let shards = cfg.shards;
    let router = GroupRouter::new(shards);
    let horizon = algo.round_horizon(cfg.engine.n, cfg.engine.t);

    let mut groups: Vec<Group> = (0..shards)
        .map(|g| {
            let mut gcfg = cfg.engine.clone();
            gcfg.seed = group_seed(cfg.engine.seed, g as u64);
            gcfg.crashes.extend(
                cfg.group_crashes
                    .iter()
                    .filter(|(group, _)| *group == g)
                    .map(|(_, crash)| *crash),
            );
            let stats = EngineStats {
                algo: RoundAlgorithm::<Batch>::name(algo).to_string(),
                model: cfg.engine.model.to_string().to_lowercase(),
                n: cfg.engine.n,
                t: cfg.engine.t,
                seed: gcfg.seed,
                ..EngineStats::default()
            };
            Group {
                cfg: gcfg,
                proposer: Proposer::new(),
                kv: KvStore::default(),
                stats,
                instance: 0,
            }
        })
        .collect();

    let mut table = TxTable::default();
    let mut sim_elapsed = Duration::ZERO;
    let mut ticks = 0u64;

    struct AuditJob<M> {
        group: usize,
        instance: u64,
        config: InitialConfig<Batch>,
        result: ThreadedOutcome<Batch, M>,
    }

    let started = Instant::now();
    let (audit_tx, audit_rx) = mpsc::channel::<AuditJob<_>>();
    let (outcome, mut certified) = std::thread::scope(|scope| {
        let auditor = scope.spawn(move || {
            let mut certified: Vec<(Vec<InstanceAudit>, Vec<TaggedRunLog<_>>)> =
                (0..shards).map(|_| (Vec::new(), Vec::new())).collect();
            for job in audit_rx {
                let audit = audit_instance(
                    algo,
                    &job.config,
                    cfg.engine.t,
                    &job.result,
                    ValidityMode::Uniform,
                    job.instance,
                );
                certified[job.group].0.push(audit);
                certified[job.group].1.push(TaggedRunLog {
                    instance: job.instance,
                    log: job.result.trace.run_log(),
                });
            }
            certified
        });

        let mut idle_since: Option<Instant> = None;
        let mut drive = || -> Result<(), ConfigError> {
            loop {
                if groups.iter().all(|g| g.instance >= g.cfg.instances) {
                    break;
                }
                // No group can run an instance: each is idle or out of
                // budget. A group out of budget may still hold work —
                // work no tick can decide, so ticking on would spin.
                let quiescent = cfg.engine.run_to_drain
                    && workload.drained()
                    && groups.iter().all(|g| {
                        g.instance >= g.cfg.instances
                            || (g.proposer.pending_len() == 0 && g.proposer.external_len() == 0)
                    })
                    && table.txs.iter().all(|t| t.resolved);
                if quiescent && source.exhausted() {
                    break;
                }
                for request in workload.poll_requests() {
                    match request {
                        ClientRequest::Single(cmd) => {
                            let g = router.group_of(op_key(&cmd.op));
                            groups[g].stats.commands_submitted += 1;
                            groups[g].proposer.submit(cmd);
                        }
                        ClientRequest::Cross(tx) => {
                            let owners = router.owners(&tx);
                            assert!(
                                owners.len() >= 2,
                                "cross-shard transaction {} spans one group: workload and \
                                 engine shard counts must match",
                                tx.id
                            );
                            table.register(tx, owners, &mut groups, ticks);
                        }
                    }
                }
                let admitted = drain_external(
                    source,
                    router,
                    &mut groups,
                    &mut table,
                    cfg.engine.batch_max,
                    ticks,
                );
                if admitted {
                    idle_since = None;
                } else if quiescent {
                    // Nothing runnable, source still live: wait (real
                    // time — clients are on the wall clock) for the next
                    // admission instead of burning instance budget or
                    // CPU, up to the idle timeout. `ticks` does not
                    // advance here, so the deterministic tick count is
                    // untouched by wall-clock idling.
                    let since = *idle_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= EXTERNAL_IDLE_TIMEOUT {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                let mut tick_elapsed = Duration::ZERO;
                for (g, group) in groups.iter_mut().enumerate() {
                    if group.instance >= group.cfg.instances {
                        continue;
                    }
                    if cfg.engine.run_to_drain
                        && workload.drained()
                        && group.proposer.pending_len() == 0
                        && group.proposer.external_len() == 0
                    {
                        continue;
                    }
                    let mut proposals =
                        group
                            .proposer
                            .proposals(group.cfg.n, group.cfg.batch_max, group.instance);
                    let tail = group.proposer.external_tail(group.cfg.batch_max.max(1));
                    if !tail.is_empty() {
                        // Externals ride as the same tail on every
                        // proposal: whichever staggered seed prefix
                        // wins, the decided batch carries them, and
                        // validity still holds (the decision is one of
                        // the proposals).
                        for proposal in &mut proposals {
                            proposal.0.extend(tail.iter().copied());
                        }
                    }
                    let config = InitialConfig::new(proposals);
                    let runtime = instance_runtime(&group.cfg, group.instance, horizon);
                    let result = RuntimeBuilder::new(algo, &config)
                        .t(group.cfg.t)
                        .runtime(runtime)
                        .backend(group.cfg.backend)
                        .run()?;
                    group.stats.instance_wall.push(result.elapsed);
                    tick_elapsed = tick_elapsed.max(result.elapsed);

                    match result.outcome.iter().find_map(|(_, o)| o.decision.clone()) {
                        Some((batch, round)) => {
                            let committed = group
                                .proposer
                                .commit(&batch, group.instance, round.get())
                                .unwrap_or_else(|e| {
                                    panic!("group {g} instance {}: {e}", group.instance)
                                });
                            let mut applied = 0u64;
                            for cmd in &committed {
                                if let Op::Prepare { tx } = cmd.op {
                                    table.record_prepare(g, tx);
                                } else if cmd.id.is_external() {
                                    group.kv.apply(&cmd.op);
                                    source.acknowledge(cmd.id, group.instance, round.get());
                                    applied += 1;
                                } else {
                                    group.kv.apply(&cmd.op);
                                    workload.acknowledge(cmd.id);
                                    applied += 1;
                                }
                            }
                            group.stats.decided_instances += 1;
                            group.stats.commands_decided += applied;
                            if let Some(rounds) = result.outcome.latency_degree() {
                                group.stats.decide_rounds.push(rounds);
                            }
                        }
                        None => group.stats.undecided_instances += 1,
                    }
                    if result.trace.crashes.iter().any(Option::is_some) {
                        group.stats.crashed_instances += 1;
                    }
                    if result.trace.retired.iter().any(Option::is_some) {
                        group.stats.retired_instances += 1;
                    }
                    if result.trace.degraded_at.is_some() {
                        group.stats.degraded_instances += 1;
                    }
                    audit_tx
                        .send(AuditJob {
                            group: g,
                            instance: group.instance,
                            config,
                            result,
                        })
                        .expect("audit thread lives until the sender drops");
                    group.instance += 1;
                }
                ticks += 1;
                sim_elapsed += tick_elapsed;
                table.resolve(ticks, false, cfg, &mut groups, workload, source);
            }
            // Groups are out of budget (or drained): any transaction
            // still waiting on a vote resolves now, missing votes as
            // `No` — aborting is always safe, hanging never is.
            table.resolve(ticks, true, cfg, &mut groups, workload, source);
            Ok(())
        };
        let outcome = drive();
        drop(audit_tx);
        let certified = auditor.join().expect("audit thread panicked");
        (outcome, certified)
    });
    outcome?;

    let wall = started.elapsed();
    let mut reports = Vec::with_capacity(shards);
    for group in groups {
        let (audits, logs) = {
            let slot = &mut certified[reports.len()];
            (std::mem::take(&mut slot.0), std::mem::take(&mut slot.1))
        };
        let mut stats = group.stats;
        stats.instances = group.instance;
        stats.elapsed = match group.cfg.backend {
            Backend::Virtual => stats.instance_wall.iter().sum(),
            Backend::Real => wall,
        };
        stats.pending_at_shutdown = group.proposer.pending_len() as u64;
        stats.reproposed = group.proposer.reproposed();
        stats.kv_digest = group.kv.digest();
        stats.audit_checked = audits.len() as u64;
        stats.audit_violations = audits.iter().filter(|a| a.violation.is_some()).count() as u64;
        stats.audit_divergences = audits.iter().filter(|a| a.divergence.is_some()).count() as u64;
        reports.push(EngineReport {
            stats,
            audits,
            logs,
            kv: group.kv,
        });
    }

    let stats = ShardedStats {
        shards,
        ticks,
        cross: table.stats,
        groups: reports.iter().map(|r| r.stats.clone()).collect(),
        elapsed: match cfg.engine.backend {
            Backend::Virtual => sim_elapsed,
            Backend::Real => wall,
        },
        gateway: if attached { Some(source.stats()) } else { None },
    };

    Ok(ShardedReport {
        stats,
        groups: reports,
        cross_violation: table.first_violation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FaultMode;
    use crate::workload::WorkloadConfig;
    use ssp_algos::A1;
    use ssp_rounds::RoundModel;

    #[test]
    fn router_partitions_and_is_identity_for_one_group() {
        let one = GroupRouter::new(1);
        assert!((0..256).all(|k| one.group_of(k) == 0));
        let four = GroupRouter::new(4);
        let mut seen = [false; 4];
        for k in 0..256 {
            seen[four.group_of(k)] = true;
        }
        assert!(seen.iter().all(|&s| s), "256 keys cover all 4 groups");
    }

    #[test]
    fn group_zero_keeps_the_engine_seed_verbatim() {
        assert_eq!(group_seed(42, 0), 42);
        let derived: Vec<u64> = (1..5).map(|g| group_seed(42, g)).collect();
        assert!(derived.iter().all(|&s| s != 42));
        let mut dedup = derived.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), derived.len(), "group seeds are distinct");
    }

    #[test]
    fn validate_rejects_the_degenerate_configs() {
        let engine = EngineConfig::new(3, 1, RoundModel::Rs);
        assert!(matches!(
            ShardedConfig::new(engine.clone(), 0).validate(),
            Err(ConfigError::ShardCountZero)
        ));
        let mut cfg = ShardedConfig::new(engine.clone(), 4);
        cfg.cross_shard_rate = 1.5;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::CrossShardRateOutOfRange { rate_pm: 1500 })
        ));
        let mut cfg = ShardedConfig::new(engine, 1);
        cfg.cross_shard_rate = 0.25;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::CrossShardRateWithoutShards { rate_pm: 250 })
        ));
    }

    #[test]
    fn cross_shard_transactions_commit_failure_free() {
        let mut engine = EngineConfig::new(3, 1, RoundModel::Rs);
        engine.instances = 30;
        engine.seed = 77;
        engine.faults = FaultMode::FailureFree;
        engine.run_to_drain = true;
        let mut cfg = ShardedConfig::new(engine, 4);
        cfg.cross_shard_rate = 0.5;
        let mut wcfg = WorkloadConfig::new(4);
        wcfg.shards = 4;
        wcfg.cross_shard_rate = 0.5;
        wcfg.commands_per_client = Some(3);
        let mut workload = Workload::new(cfg.engine.seed, wcfg);
        let report = serve_sharded(&A1, &cfg, &mut workload).unwrap();
        assert!(report.stats.cross.submitted > 0, "rate 0.5 must draw a tx");
        assert_eq!(
            report.stats.cross.committed, report.stats.cross.submitted,
            "failure-free all-Yes exchanges all commit"
        );
        assert_eq!(report.stats.cross.nbac_violations, 0);
        assert!(report.cross_violation.is_none());
        assert!(report
            .groups
            .iter()
            .all(|g| g.audits.iter().all(InstanceAudit::is_clean)));
        // Exactly-once: every submission decided or committed once.
        let singles: u64 = report.stats.groups.iter().map(|g| g.commands_decided).sum();
        assert_eq!(
            singles + report.stats.cross.committed,
            workload.submitted(),
            "every submission resolved exactly once"
        );
    }

    #[test]
    fn sharded_runs_are_deterministic_per_seed() {
        let mut engine = EngineConfig::new(3, 1, RoundModel::Rws);
        engine.instances = 12;
        engine.seed = 909;
        let mut cfg = ShardedConfig::new(engine, 2);
        cfg.cross_shard_rate = 0.3;
        let mut wcfg = WorkloadConfig::new(5);
        wcfg.shards = 2;
        wcfg.cross_shard_rate = 0.3;
        let run = |cfg: &ShardedConfig| {
            let mut workload = Workload::new(cfg.engine.seed, wcfg);
            serve_sharded(&A1, cfg, &mut workload).unwrap().stats
        };
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.to_json(), b.to_json(), "sharded stats are reproducible");
    }
}
