//! # ssp-engine
//!
//! A replicated state-machine service built from *repeated* consensus:
//! an unbounded sequence of uniform-consensus instances over the
//! workspace's threaded runtime, each instance deciding one batch of
//! client commands applied to a replicated key-value store.
//!
//! This is the paper's efficiency argument made operational. A single
//! consensus run shows Λ(A1) = 1 in `RS` against Λ ≥ 2 for any
//! `RWS` algorithm (Theorem 5.2); a *service* running instances
//! back-to-back turns that per-instance round gap into a sustained
//! throughput gap, because every decided instance immediately seeds the
//! next. The engine measures exactly that: decided instances per
//! second, decide latency in rounds and wall time, `RS` vs `RWS`, same
//! workload, same seeds.
//!
//! The moving parts:
//!
//! - [`Workload`]: seed-deterministic closed-loop client population
//!   (Zipf keys, put/delete mix) — submission rate adapts to decision
//!   rate.
//! - [`Proposer`]: pending-command queue; per-process proposals are
//!   staggered prefixes of it, so consensus validity makes exactly-once
//!   commitment structural ([`Proposer::commit`]).
//! - [`serve`]: the instance loop — fault plan from
//!   `(seed, instance)`, execution through
//!   [`RuntimeBuilder`](ssp_runtime::RuntimeBuilder) (typed config
//!   rejection, never a hang) on the configured clock backend —
//!   virtual time by default, so a full service run takes
//!   milliseconds of wall clock — commit, acknowledge.
//! - Background audit: every instance's trace crosses an mpsc channel
//!   to an auditor thread that replays it against the step models
//!   ([`ssp_lab::audit_instance`]) and renders its canonical
//!   [`TaggedRunLog`](ssp_model::TaggedRunLog) — certification
//!   pipelined behind execution.
//! - [`EngineStats`]: deterministic JSON core (byte-identical per
//!   seed) plus human wall-clock report.
//! - [`serve_sharded`]: the same pipeline as one group of G — a
//!   key-hash [`GroupRouter`] partitions the key space over
//!   independent consensus groups, and cross-shard transactions
//!   resolve through `ssp-commit`'s non-blocking atomic commit
//!   ([`serve`] *is* the one-group special case, byte for byte).
//!
//! Faults compose the same way they do in `ssp runtime-fuzz`: seeded
//! [`FaultPlan`](ssp_runtime::FaultPlan) crashes, scripted
//! [`EngineCrash`]es, chaos loss/duplication/reordering, watchdog
//! `RS → RWS` degradation. A crashed proposer's batch stays pending
//! and is re-proposed; the service as a whole keeps deciding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cluster;
pub mod command;
pub mod engine;
pub mod external;
pub mod proposer;
pub mod shard;
pub mod stats;
pub mod workload;

pub use cluster::{
    decode_wire, encode_wire, merge_reports, run_cluster, serve_node, serve_node_to_file,
    serve_node_with, ClusterConfig, ClusterReport, GatewayNodeConfig, GatewaySpec, KillSpec,
    NodeConfig,
};
pub use command::{
    decode_external_ops, encode_external_ops, Batch, ClientRequest, Command, CommandId, KvStore,
    Op, Transaction, EXTERNAL_BIT,
};
pub use engine::{instance_seed, serve, EngineConfig, EngineCrash, EngineReport, FaultMode};
pub use external::ExternalSource;
pub use proposer::{CommitError, Proposer};
pub use shard::{
    group_seed, rate_pm, serve_sharded, serve_sharded_with, GroupRouter, ShardedConfig,
    ShardedReport,
};
pub use stats::{CrossShardStats, EngineStats, ShardedStats};
pub use workload::{Workload, WorkloadConfig};

// Cross-shard exchanges are audited against the NBAC specification;
// a violation is part of the engine's audit error surface, so the
// checker's verdict type and the typed outcome are re-exported here.
pub use ssp_commit::{CommitOutcome, NbacViolation};
