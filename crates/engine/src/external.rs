//! The engine-side contract for external command sources.
//!
//! The seed-deterministic [`Workload`](crate::Workload) is one client
//! population; externally submitted commands are another.
//! [`ExternalSource`] is the seam between them and the in-process
//! sharded engine ([`serve_sharded_with`](crate::serve_sharded_with)):
//! the serving loop drains admitted submissions, rides them as a
//! *tail* on every proposal (so the seed-replayed proposal prefixes
//! stay byte-identical), and acknowledges each decided command back
//! through the source with the `(instance, round)` it was decided at —
//! the client-observed latency ledger for Theorem 5.2.
//!
//! Every source is in-process and the engine never sees sockets. The
//! gateway crate's `ScriptedLoad` drives `ssp load --inproc` and the
//! exactly-once-under-resubmission tests for both round models without
//! a network; `perfbench`'s `engine` workload has a source of its own.
//! The socket node does not use this seam: it admits client frames
//! through [`GatewayListener`](ssp_runtime::GatewayListener) directly
//! (see [`serve_node_with`](crate::serve_node_with)).

use ssp_runtime::GatewayStats;

use crate::command::{ClientRequest, CommandId};

/// A pluggable source of externally submitted commands.
///
/// Implementations must be idempotent per `(client, req)`: draining
/// never yields the same identity twice unless the earlier admission
/// was already acknowledged (the serving layer's proposer-level dedup
/// silently skips such re-decisions either way).
pub trait ExternalSource {
    /// Drains up to `max` admitted submissions, admission order.
    fn drain(&mut self, max: usize) -> Vec<ClientRequest>;

    /// Acknowledges a decided external command: it was applied (or,
    /// for a cross-shard transaction, resolved) by consensus instance
    /// `instance` in round `round`.
    fn acknowledge(&mut self, id: CommandId, instance: u64, round: u32);

    /// Whether the source will never produce another submission. A
    /// live network gateway answers `false` (clients may still
    /// connect); scripted sources answer `true` once their script is
    /// spent, letting a draining serve loop stop immediately instead
    /// of waiting out its idle timeout.
    fn exhausted(&self) -> bool {
        false
    }

    /// Admission counters so far.
    fn stats(&self) -> GatewayStats;
}
