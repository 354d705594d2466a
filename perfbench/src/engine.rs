//! `engine`: in-process `serve_sharded_with` on the virtual clock.
//! CtRounds in RWS, n = 3, t = 1, two groups, 10% cross-shard two-key
//! transactions, seeded crash faults and 10% chaos loss, driven by two
//! closed-loop clients through an `ExternalSource` the benchmark owns.
//!
//! There are no sockets and no timers, so wall time is the CPU cost of
//! the per-instance runtime rebuild, `net.rs` retransmission, the
//! engine's proposer, router and audit, and live NBAC in `commit`.
//! Each client issues a fixed number of requests, so every decision
//! (and the mean ack round) repeats exactly for a seed.

use std::time::{Duration, Instant};

use ssp_algos::CtRounds;
use ssp_engine::{
    group_seed, instance_seed, serve_sharded_with, Batch, ClientRequest, Command, CommandId,
    CrossShardStats, EngineConfig, EngineStats, ExternalSource, GroupRouter, Op, ShardedConfig,
    ShardedReport, ShardedStats, Transaction, Workload, WorkloadConfig, EXTERNAL_BIT,
};
use ssp_model::InitialConfig;
use ssp_runtime::{Backend, ChaosConfig, GatewayStats, PlanModel, RuntimeBuilder};

use crate::trace::Tracer;
use crate::util::{cpu_of, mean, median, ms, peak_rss_mb, quantile, ratio, splitmix, Cpu};
use crate::{Ctx, Outcome};

const N: usize = 3;
const T: usize = 1;
const SHARDS: usize = 2;
const CLIENTS: u64 = 2;
/// Every tenth request of a client is a cross-shard transaction, at a
/// seed-chosen phase: a fixed share, so that seeds differ in keys and
/// faults but not in how much two-group work they carry.
const CROSS_EVERY: u64 = 10;
const CHAOS: ChaosConfig = ChaosConfig {
    loss_pm: 100,
    dup_pm: 0,
    reorder_pm: 0,
};
/// The timed phase is a series of serve calls (segments) until the run's
/// seconds are spent, each with its own seed and this many requests per
/// client: about 0.6 s of work on a 2-vCPU x86-64 host today. Within a
/// segment the count, not the time, is fixed, so every decision repeats
/// for a seed.
const SEGMENT_REQUESTS: u64 = 220;
/// A run is this many blocks, each a warm-up serve call of
/// `WARM_UP_REQUESTS` per client (the set-up) and then segments.
/// `setup_s` is the median warm-up time, from warm-ups spread over the
/// whole run: the host's speed drifts over seconds, and warm-ups taken
/// together at the start spread far more from run to run.
const WARM_UPS: u64 = 10;
const WARM_UP_REQUESTS: u64 = 60;
/// Segment `i` runs its instances under engine seed
/// `segment_seed(FAULT_SEED, i)` in every run, so each run meets the same
/// sequence of fault scenarios: per-segment time varies by a third
/// between engine seeds, and sampling different scenarios per run made
/// `ops_per_s` spread more than the host's drift does. `--seed` sets the
/// requests' values and transaction phase. Set-up uses the same fixed
/// scenarios.
const FAULT_SEED: u64 = 0;
/// Instances per group replayed directly on `RuntimeBuilder::run` in the
/// traced run.
const PROBE_INSTANCES: u64 = 200;

/// External keys live far above the seed workload's Zipf keys. Request
/// `r` of client `c` owns the 64 keys from `KEY_BASE + c·2²⁴ + 64·r` and
/// writes the first one a chosen group owns; a transaction's second key
/// comes from the same range shifted by 2²³. No two requests share a key.
const KEY_BASE: u32 = 0x4000_0000;
const SECOND_KEY_OFFSET: u32 = 1 << 23;
const KEYS_PER_REQUEST: u32 = 64;

fn value_of(seed: u64, key: u32) -> u64 {
    splitmix(seed ^ (u64::from(key) << 8))
}

fn put(seed: u64, key: u32) -> Op {
    Op::Put {
        key,
        value: value_of(seed, key),
    }
}

/// The first key of `range_start..range_start + 64` that `group` owns.
fn key_in(router: GroupRouter, range_start: u32, group: usize) -> u32 {
    (range_start..range_start + KEYS_PER_REQUEST)
        .find(|&k| router.group_of(k) == group)
        .expect("64 consecutive keys span both groups")
}

/// Request `req` of `client`, generated from the seed alone. Which group
/// a request's first key falls in is a fixed pseudo-random pattern, the
/// same for every seed: which groups are busy in a tick sets its cost,
/// so seeds differ in values, transaction phase and faults, not in how
/// the load falls on the groups.
fn request(seed: u64, router: GroupRouter, client: u64, req: u64) -> ClientRequest {
    assert!(
        req < u64::from(SECOND_KEY_OFFSET / KEYS_PER_REQUEST),
        "request index overflows the key range"
    );
    let id = CommandId::external(client, req);
    let range = KEY_BASE + ((client as u32) << 24) + KEYS_PER_REQUEST * req as u32;
    let group = (splitmix((client << 32) ^ req) % SHARDS as u64) as usize;
    let k1 = key_in(router, range, group);
    let phase = splitmix(seed ^ client) % CROSS_EVERY;
    if (req + phase).is_multiple_of(CROSS_EVERY) {
        let k2 = key_in(router, range + SECOND_KEY_OFFSET, 1 - group);
        ClientRequest::Cross(Transaction {
            id,
            ops: vec![put(seed, k1), put(seed, k2)],
        })
    } else {
        ClientRequest::Single(Command {
            id,
            op: put(seed, k1),
        })
    }
}

fn keys_of(request: &ClientRequest) -> Vec<u32> {
    let key = |op: &Op| match op {
        Op::Put { key, .. } | Op::Delete { key } => *key,
        Op::Prepare { .. } => unreachable!("clients send no prepare markers"),
    };
    match request {
        ClientRequest::Single(cmd) => vec![key(&cmd.op)],
        ClientRequest::Cross(tx) => tx.ops.iter().map(key).collect(),
    }
}

struct Outstanding {
    req: u64,
    request: ClientRequest,
    eligible: Instant,
    drained: Instant,
}

struct Client {
    next: u64,
    ready_since: Instant,
    outstanding: Option<Outstanding>,
}

/// One acknowledged request.
struct Acked {
    request: ClientRequest,
    eligible: Instant,
    drained: Instant,
    acked: Instant,
    round: u32,
}

/// Closed-loop clients: each has at most one request outstanding and
/// its next becomes eligible the moment the previous one is acked.
struct Source<'t> {
    seed: u64,
    router: GroupRouter,
    per_client: u64,
    clients: Vec<Client>,
    acked: Vec<Acked>,
    stray_acks: u64,
    admitted: u64,
    tracer: &'t mut Tracer,
    serve_span: Option<usize>,
}

impl<'t> Source<'t> {
    fn new(seed: u64, per_client: u64, start: Instant, tracer: &'t mut Tracer) -> Self {
        Source {
            seed,
            router: GroupRouter::new(SHARDS),
            per_client,
            clients: (0..CLIENTS)
                .map(|_| Client {
                    next: 0,
                    ready_since: start,
                    outstanding: None,
                })
                .collect(),
            acked: Vec::new(),
            stray_acks: 0,
            admitted: 0,
            tracer,
            serve_span: None,
        }
    }
}

impl ExternalSource for Source<'_> {
    fn drain(&mut self, max: usize) -> Vec<ClientRequest> {
        let span = self
            .tracer
            .open("bench.ExternalSource::drain", self.serve_span, None);
        let now = Instant::now();
        let mut out = Vec::new();
        for (c, client) in self.clients.iter_mut().enumerate() {
            if out.len() >= max || client.outstanding.is_some() || client.next >= self.per_client {
                continue;
            }
            let req = client.next;
            client.next += 1;
            let request = request(self.seed, self.router, c as u64 + 1, req);
            out.push(request.clone());
            client.outstanding = Some(Outstanding {
                req,
                request,
                eligible: client.ready_since,
                drained: now,
            });
            self.admitted += 1;
        }
        self.tracer.close(span);
        out
    }

    fn acknowledge(&mut self, id: CommandId, _instance: u64, round: u32) {
        let now = Instant::now();
        let span = self.tracer.open(
            "bench.ExternalSource::acknowledge",
            self.serve_span,
            Some(u64::from(id.seq)),
        );
        let slot = usize::try_from(id.client & !EXTERNAL_BIT)
            .ok()
            .and_then(|c| c.checked_sub(1))
            .and_then(|c| self.clients.get_mut(c));
        match slot {
            Some(client)
                if client
                    .outstanding
                    .as_ref()
                    .is_some_and(|o| u64::from(id.seq) == o.req) =>
            {
                let o = client.outstanding.take().expect("checked above");
                client.ready_since = now;
                self.acked.push(Acked {
                    request: o.request,
                    eligible: o.eligible,
                    drained: o.drained,
                    acked: now,
                    round,
                });
            }
            // A second ack of the same request, or one never issued.
            _ => self.stray_acks += 1,
        }
        self.tracer.close(span);
    }

    fn exhausted(&self) -> bool {
        self.clients
            .iter()
            .all(|c| c.next >= self.per_client && c.outstanding.is_none())
    }

    fn stats(&self) -> GatewayStats {
        GatewayStats {
            admitted: self.admitted,
            ..GatewayStats::default()
        }
    }
}

fn config(seed: u64) -> ShardedConfig {
    let mut engine = EngineConfig::new(N, T, PlanModel::Rws);
    engine.seed = seed;
    // No instance budget bounds the run: it ends when the clients'
    // fixed request count is acked and the seed workload drained.
    engine.instances = u64::MAX;
    engine.run_to_drain = true;
    engine.chaos = Some(CHAOS);
    ShardedConfig::new(engine, SHARDS)
}

/// The replicated seed workload stays small: two clients, two commands
/// each, so the external clients are the load.
fn seed_workload(seed: u64) -> Workload {
    let mut wcfg = WorkloadConfig::new(2);
    wcfg.commands_per_client = Some(2);
    wcfg.shards = SHARDS;
    Workload::new(seed, wcfg)
}

/// One serve call with its timing and checks.
/// One serve call's timing, acks and statistics. The report's run logs
/// and audits are dropped once checked, so the benchmark's own memory
/// does not grow with the number of segments.
struct Served {
    start: Instant,
    wall: Duration,
    stats: Option<ShardedStats>,
    acked: Vec<Acked>,
}

/// `engine_seed` sets the instances' faults and the replicated seed
/// workload; `seed` the requests' values and transaction phase.
fn serve(
    engine_seed: u64,
    seed: u64,
    per_client: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Served {
    let cfg = config(engine_seed);
    let mut workload = seed_workload(engine_seed);
    let start = Instant::now();
    let mut source = Source::new(seed, per_client, start, tracer);
    let span = source.tracer.open("engine.serve_sharded_with", None, None);
    source.serve_span = Some(span);
    let result = serve_sharded_with(&CtRounds, &cfg, &mut workload, &mut source);
    source.tracer.close(span);
    let wall = start.elapsed();
    out.attempted += CLIENTS * per_client;
    let report = match result {
        Ok(report) => Some(report),
        Err(e) => {
            out.problem(CLIENTS * per_client, format!("serve_sharded_with: {e}"));
            None
        }
    };
    if let Some(report) = &report {
        check(report, &source, per_client, out);
    }
    let acked = std::mem::take(&mut source.acked);
    Served {
        start,
        wall,
        stats: report.map(|r| r.stats),
        acked,
    }
}

/// Exactly-once at the client and at the store, clean audits, no NBAC
/// violation.
fn check(
    report: &ShardedReport<ssp_algos::CtRoundMsg<Batch>>,
    source: &Source<'_>,
    per_client: u64,
    out: &mut Outcome,
) {
    let expected = CLIENTS * per_client;
    let acked = source.acked.len() as u64;
    if acked != expected || source.stray_acks != 0 {
        out.problem(
            expected.saturating_sub(acked) + source.stray_acks,
            format!(
                "engine: {acked} of {expected} requests acked once, {} stray acks",
                source.stray_acks
            ),
        );
    }
    let violations: u64 = report
        .stats
        .groups
        .iter()
        .map(|g| g.audit_violations + g.audit_divergences)
        .sum::<u64>()
        + report.stats.cross.nbac_violations;
    if violations != 0 || report.cross_violation.is_some() {
        out.problem(
            violations.max(1),
            format!("engine: {violations} audit, divergence or NBAC violations"),
        );
    }
    let router = GroupRouter::new(SHARDS);
    let stored = |key: u32| report.groups[router.group_of(key)].kv.get(key);
    let (mut wrong, mut committed) = (0u64, 0u64);
    for a in &source.acked {
        let keys = keys_of(&a.request);
        let present = keys
            .iter()
            .filter(|&&k| stored(k) == Some(value_of(source.seed, k)))
            .count();
        let absent = keys.iter().filter(|&&k| stored(k).is_none()).count();
        match (&a.request, present, absent) {
            (ClientRequest::Single(_), 1, _) => {}
            (ClientRequest::Cross(_), 2, _) => committed += 1,
            (ClientRequest::Cross(_), _, 2) => {}
            _ => wrong += 1,
        }
    }
    if wrong != 0 || committed != report.stats.cross.committed {
        out.problem(
            wrong.max(1),
            format!(
                "engine: {wrong} acked requests missing or torn in the store; {committed} \
                 transactions stored vs {} committed",
                report.stats.cross.committed
            ),
        );
    }
}

/// Direct `RuntimeBuilder::run` on the instance seeds of a served segment
/// (`seed` is that segment's): the runtime's own cost per instance, and
/// its network counters. The instances get the segment's fault plans and
/// chaos; their proposals are one-command batches of the segment's first
/// requests.
fn runtime_probe(engine_seed: u64, seed: u64, tracer: &mut Tracer, out: &mut Outcome) {
    let proposals: Vec<Batch> = (0..N as u64)
        .map(|p| match request(seed, GroupRouter::new(SHARDS), 1, p) {
            ClientRequest::Single(cmd) => Batch(vec![cmd]),
            ClientRequest::Cross(tx) => Batch(
                tx.ops
                    .iter()
                    .map(|&op| Command { id: tx.id, op })
                    .take(1)
                    .collect(),
            ),
        })
        .collect();
    let config = InitialConfig::new(proposals);
    let mut micros = Vec::new();
    let (mut wires, mut dropped, mut dups) = (0u64, 0u64, 0u64);
    for g in 0..SHARDS as u64 {
        for k in 0..PROBE_INSTANCES {
            let started = Instant::now();
            let result = tracer.span("runtime.RuntimeBuilder::run", None, Some(k), || {
                RuntimeBuilder::new(&CtRounds, &config)
                    .t(T)
                    .model(PlanModel::Rws)
                    .seed(instance_seed(group_seed(engine_seed, g), k))
                    .chaos(Some(CHAOS))
                    .backend(Backend::Virtual)
                    .run()
            });
            micros.push(started.elapsed().as_secs_f64() * 1e6);
            match result {
                Ok(run) => {
                    wires += run.net.wires;
                    dropped += run.net.chaos_dropped;
                    dups += run.net.dup_suppressed;
                }
                Err(e) => out.problem(1, format!("runtime probe: {e}")),
            }
        }
    }
    let runs = micros.len() as f64;
    out.layer("runtime.instance_us_p50", median(&micros));
    out.layer("runtime.instance_us_p90", quantile(&micros, 0.9));
    out.layer("runtime.wires_per_instance", wires as f64 / runs);
    out.layer("runtime.chaos_dropped_per_instance", dropped as f64 / runs);
    out.layer("runtime.dup_suppressed_per_instance", dups as f64 / runs);
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut untraced = Tracer::new(false, Instant::now());
    let mut setups: Vec<f64> = Vec::new();
    let mut segments: Vec<Served> = Vec::new();
    let mut cpu = Some(Cpu::default());
    let block = ctx.seconds / WARM_UPS as f64;
    for i in 0..WARM_UPS {
        let started = Instant::now();
        let seed = segment_seed(FAULT_SEED, u64::MAX - i);
        serve(seed, seed, WARM_UP_REQUESTS, &mut untraced, &mut out);
        setups.push(started.elapsed().as_secs_f64());

        let started = Instant::now();
        let before = segments.len();
        while segments.len() == before || started.elapsed().as_secs_f64() < block {
            let i = segments.len() as u64;
            let cpu_before = cpu_of("self");
            segments.push(serve(
                segment_seed(FAULT_SEED, i),
                segment_seed(ctx.seed, i),
                SEGMENT_REQUESTS,
                tracer,
                &mut out,
            ));
            let used = cpu_of("self").zip(cpu_before).map(|(a, b)| a.since(b));
            cpu = cpu.zip(used).map(|(sum, used)| Cpu {
                user: sum.user + used.user,
                sys: sum.sys + used.sys,
            });
        }
    }

    // Gated numbers: all segments together, the wall time of each counted
    // from its start to its last ack.
    let acked: Vec<&Acked> = segments.iter().flat_map(|s| &s.acked).collect();
    let n_acked = acked.len() as f64;
    if !acked.is_empty() {
        let wall: f64 = segments
            .iter()
            .filter_map(|s| s.acked.iter().map(|a| a.acked).max().map(|l| l - s.start))
            .map(|d| d.as_secs_f64())
            .sum();
        let latencies: Vec<f64> = acked.iter().map(|a| ms(a.acked - a.eligible)).collect();
        out.e2e("ops_per_s", n_acked / wall);
        out.e2e("op_p50_ms", median(&latencies));
        out.e2e("op_p90_ms", quantile(&latencies, 0.9));
    }
    out.e2e(
        "ok_share",
        1.0 - ratio(out.failed as f64, out.attempted as f64),
    );
    out.e2e("setup_s", median(&setups));
    out.e2e("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0));

    // Per-layer numbers, also over all segments.
    if !acked.is_empty() {
        let queue: Vec<f64> = acked.iter().map(|a| ms(a.drained - a.eligible)).collect();
        let decide: Vec<f64> = acked.iter().map(|a| ms(a.acked - a.drained)).collect();
        out.layer("engine.queue_ms_p50", median(&queue));
        out.layer("engine.queue_ms_p90", quantile(&queue, 0.9));
        out.layer("engine.decide_ms_p50", median(&decide));
        out.layer("engine.decide_ms_p90", quantile(&decide, 0.9));
    }
    let single_rounds: Vec<f64> = acked
        .iter()
        .filter(|a| matches!(a.request, ClientRequest::Single(_)))
        .map(|a| f64::from(a.round))
        .collect();
    if !single_rounds.is_empty() {
        out.e2e("ack_rounds_mean", mean(&single_rounds));
    }
    out.layer(
        "engine.serve_s",
        segments.iter().map(|s| s.wall.as_secs_f64()).sum(),
    );
    if let Some(cpu) = cpu {
        out.layer("engine.cpu_ms_per_op", ratio(ms(cpu.total()), n_acked));
        out.layer(
            "engine.sys_share",
            ratio(cpu.sys.as_secs_f64(), cpu.total().as_secs_f64()),
        );
    }
    let groups: Vec<&EngineStats> = segments
        .iter()
        .filter_map(|s| s.stats.as_ref())
        .flat_map(|s| &s.groups)
        .collect();
    let total = |f: fn(&EngineStats) -> u64| groups.iter().map(|g| f(g)).sum::<u64>() as f64;
    out.layer(
        "engine.instances_per_op",
        ratio(total(|g| g.instances), n_acked),
    );
    out.layer(
        "engine.reproposed_share",
        ratio(total(|g| g.reproposed), total(|g| g.commands_decided)),
    );
    let rounds: Vec<f64> = groups
        .iter()
        .flat_map(|g| g.decide_rounds.iter().map(|&r| f64::from(r)))
        .collect();
    if !rounds.is_empty() {
        out.layer("engine.decide_rounds_p99", quantile(&rounds, 0.99));
    }
    let cross: Vec<&CrossShardStats> = segments
        .iter()
        .filter_map(|s| s.stats.as_ref())
        .map(|s| &s.cross)
        .collect();
    let committed: u64 = cross.iter().map(|c| c.committed).sum();
    let submitted: u64 = cross.iter().map(|c| c.submitted).sum();
    out.layer(
        "commit.committed_share",
        ratio(committed as f64, submitted as f64),
    );
    out.layer(
        "commit.timeout_no_votes",
        cross.iter().map(|c| c.timeout_no_votes).sum::<u64>() as f64,
    );
    if tracer.enabled() {
        runtime_probe(
            segment_seed(FAULT_SEED, 0),
            segment_seed(ctx.seed, 0),
            tracer,
            &mut out,
        );
        crate::verify::probe(tracer, &mut out);
    }
    out
}

/// Segment `i`'s engine and request seed.
fn segment_seed(seed: u64, i: u64) -> u64 {
    splitmix(seed ^ splitmix(i))
}
