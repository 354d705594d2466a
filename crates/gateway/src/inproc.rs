//! In-process load generation: a scripted [`ExternalSource`] drives
//! [`serve_sharded_with`] directly, with no sockets in the path.
//!
//! This is where the client-observed face of Theorem 5.2 becomes a
//! *deterministic* measurement: every ack carries the decision round,
//! so the per-class round histograms — single-key vs cross-shard —
//! are byte-identical per seed, and comparing `A1` under `RS` against
//! a `t + 1`-round algorithm under `RWS` yields the paper's latency
//! ratio with no wall clock involved.

use std::collections::{BTreeMap, VecDeque};

use ssp_engine::{
    rate_pm, serve_sharded_with, ClientRequest, Command, CommandId, ExternalSource, GroupRouter,
    Op, ShardedConfig, ShardedStats, Transaction, Workload, WorkloadConfig, EXTERNAL_BIT,
};
use ssp_rounds::{RoundAlgorithm, RoundProcess};
use ssp_runtime::{splitmix, GatewayStats};

use crate::hist::ClassStats;
use crate::load::{load_op, FIRST_CLIENT, LOAD_KEY_BASE, LOAD_KEY_STRIDE};

/// Knobs of one in-process load run.
#[derive(Debug, Clone)]
pub struct InprocLoadConfig {
    /// Closed-loop client window: this many requests in flight at
    /// once, one per client.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: u32,
    /// Fraction of requests that are cross-shard transactions
    /// (requires at least two shards).
    pub cross_rate: f64,
    /// Seed of the request script (independent of the engine seed).
    pub seed: u64,
}

impl InprocLoadConfig {
    /// Defaults: 4 clients × 8 requests, no cross-shard traffic.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        InprocLoadConfig {
            clients: 4,
            requests_per_client: 8,
            cross_rate: 0.0,
            seed,
        }
    }
}

/// A scripted closed-loop external source: each client holds at most
/// one request outstanding, freed by the engine's acknowledgement.
/// Exactly-once is checked structurally — a double acknowledgement of
/// the same identity panics.
#[derive(Debug)]
pub struct ScriptedLoad {
    scripts: Vec<VecDeque<ClientRequest>>,
    outstanding: Vec<Option<CommandId>>,
    /// Identity → is-cross, for classifying acks.
    classes: BTreeMap<CommandId, bool>,
    admitted: u64,
    acked: u64,
    /// Ack rounds of single-key commands.
    pub single: ClassStats,
    /// Ack "rounds" of cross-shard transactions (ticks from
    /// registration to NBAC resolution).
    pub cross: ClassStats,
}

impl ScriptedLoad {
    /// Builds the full deterministic request script up front.
    ///
    /// # Panics
    ///
    /// Panics when `cross_rate` is positive over a single shard, or on
    /// a client window so large the key ranges leave the 32-bit space.
    #[must_use]
    pub fn new(cfg: &InprocLoadConfig, shards: usize) -> Self {
        assert!(
            cfg.cross_rate <= 0.0 || shards >= 2,
            "cross-shard load needs at least two shards"
        );
        let router = GroupRouter::new(shards.max(1));
        let cross_pm = u64::try_from(rate_pm(cfg.cross_rate.clamp(0.0, 1.0))).unwrap_or(0);
        let mut scripts = Vec::with_capacity(cfg.clients);
        for c in 0..cfg.clients as u64 {
            let client = FIRST_CLIENT + c;
            let mut script = VecDeque::with_capacity(cfg.requests_per_client as usize);
            for r in 0..u64::from(cfg.requests_per_client) {
                let id = CommandId::external(client, r);
                let roll = splitmix(cfg.seed ^ (client << 24) ^ r) % 1000;
                if roll < cross_pm {
                    script.push_back(ClientRequest::Cross(Transaction {
                        id,
                        ops: cross_ops(cfg.seed, &router, client, r),
                    }));
                } else {
                    script.push_back(ClientRequest::Single(Command {
                        id,
                        op: load_op(cfg.seed, client, r),
                    }));
                }
            }
            scripts.push(script);
        }
        ScriptedLoad {
            outstanding: vec![None; scripts.len()],
            scripts,
            classes: BTreeMap::new(),
            admitted: 0,
            acked: 0,
            single: ClassStats::default(),
            cross: ClassStats::default(),
        }
    }

    /// Requests acknowledged so far.
    #[must_use]
    pub fn acked(&self) -> u64 {
        self.acked
    }
}

/// Two put operations on keys owned by *different* groups: the first
/// key is the client's deterministic slot, the second the nearest
/// following key that hashes to another group.
fn cross_ops(seed: u64, router: &GroupRouter, client: u64, req: u64) -> Vec<Op> {
    let k1 = LOAD_KEY_BASE
        + u32::try_from(client).expect("client index fits u32") * LOAD_KEY_STRIDE
        + u32::try_from((2 * req) % u64::from(LOAD_KEY_STRIDE)).expect("bounded");
    let g1 = router.group_of(k1);
    // Values are a pure function of (seed, key), so even a colliding
    // key write is order-independent.
    let k2 = (1..u64::from(LOAD_KEY_STRIDE))
        .map(|d| k1 + u32::try_from(d).expect("bounded"))
        .find(|&k| router.group_of(k) != g1)
        .unwrap_or(k1 + 1);
    [k1, k2]
        .into_iter()
        .map(|key| Op::Put {
            key,
            value: splitmix(seed ^ u64::from(key)),
        })
        .collect()
}

impl ExternalSource for ScriptedLoad {
    fn drain(&mut self, max: usize) -> Vec<ClientRequest> {
        let mut out = Vec::new();
        for c in 0..self.scripts.len() {
            if out.len() >= max {
                break;
            }
            if self.outstanding[c].is_some() {
                continue;
            }
            let Some(req) = self.scripts[c].pop_front() else {
                continue;
            };
            let (id, is_cross) = match &req {
                ClientRequest::Single(cmd) => (cmd.id, false),
                ClientRequest::Cross(tx) => (tx.id, true),
            };
            self.outstanding[c] = Some(id);
            self.classes.insert(id, is_cross);
            self.admitted += 1;
            out.push(req);
        }
        out
    }

    fn acknowledge(&mut self, id: CommandId, _instance: u64, round: u32) {
        let client = usize::try_from(u64::from(id.client & !EXTERNAL_BIT) - FIRST_CLIENT)
            .expect("scripted client index");
        assert_eq!(
            self.outstanding[client],
            Some(id),
            "acknowledged {id} while a different request was outstanding: \
             exactly-once would be broken"
        );
        self.outstanding[client] = None;
        self.acked += 1;
        let is_cross = self.classes.get(&id).copied().unwrap_or(false);
        if is_cross {
            self.cross.record(std::time::Duration::ZERO, round);
        } else {
            self.single.record(std::time::Duration::ZERO, round);
        }
    }

    fn exhausted(&self) -> bool {
        self.scripts.iter().all(VecDeque::is_empty) && self.outstanding.iter().all(Option::is_none)
    }

    fn stats(&self) -> GatewayStats {
        GatewayStats {
            admitted: self.admitted,
            deduped: 0,
            busy_rejected: 0,
            redirects: 0,
        }
    }
}

/// What one in-process load run produced.
#[derive(Debug)]
pub struct InprocReport {
    /// The sharded engine's statistics (deterministic cores included).
    pub stats: ShardedStats,
    /// Round histogram of single-key acks — deterministic per seed.
    pub single: ClassStats,
    /// Resolution-tick histogram of cross-shard acks.
    pub cross: ClassStats,
    /// Requests the script contained.
    pub requested: u64,
    /// Requests acknowledged (must equal `requested` on a clean run).
    pub acked: u64,
}

impl InprocReport {
    /// Renders the client-observed summary as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"requested\":{},\"acked\":{},\"single\":{},\"cross\":{}}}",
            self.requested,
            self.acked,
            self.single.to_json(),
            self.cross.to_json(),
        )
    }
}

/// Drives a sharded engine to drain under the scripted load and
/// returns the client-observed report.
///
/// The engine configuration is forced to `run_to_drain` so the run
/// ends exactly when the seed workload and the script are both spent.
///
/// # Errors
///
/// Human-readable message for configuration errors or a script that
/// finished with unacknowledged requests.
pub fn run_inproc_load<A>(
    algo: &A,
    cfg: &ShardedConfig,
    load: &InprocLoadConfig,
) -> Result<InprocReport, String>
where
    A: RoundAlgorithm<ssp_engine::Batch> + Sync,
    A::Process: Send + 'static,
    <A::Process as RoundProcess>::Msg: Clone + Send + 'static,
{
    let mut cfg = cfg.clone();
    cfg.engine.run_to_drain = true;
    let mut wcfg = WorkloadConfig::new(2);
    wcfg.commands_per_client = Some(2);
    wcfg.shards = cfg.shards;
    let mut workload = Workload::new(cfg.engine.seed, wcfg);
    let mut source = ScriptedLoad::new(load, cfg.shards);
    let requested = u64::from(load.requests_per_client) * load.clients as u64;
    let report = serve_sharded_with(algo, &cfg, &mut workload, &mut source)
        .map_err(|e| format!("invalid runtime configuration: {e}"))?;
    if source.acked() != requested {
        return Err(format!(
            "inproc load finished with {} of {requested} requests acked \
             (instance budget too small for the window?)",
            source.acked(),
        ));
    }
    let acked = source.acked();
    Ok(InprocReport {
        stats: report.stats,
        single: source.single,
        cross: source.cross,
        requested,
        acked,
    })
}
