//! The one seeded fault rule, and the two fault sets drawn from it.
//!
//! Every fault decision is a pure hash of `(seed, salt, src, dst, seq,
//! attempt)` (`roll`): a fault at per-mille rate `pm` fires iff the
//! roll falls below it mod 1000 (`hits`). Nothing depends on thread
//! scheduling or wall-clock timing, so the same seed misbehaves the same
//! way on every run. Two injectors use the rule, each at the point where
//! its network hands a wire to its link:
//!
//! * [`ChaosConfig`] — the in-process network's loss, duplication and
//!   reorder. The network is a delay model of a reliable link: the
//!   faults change *when* a wire lands, never *whether* it lands.
//! * [`SocketFaults`] — a socket node's drop, delay and reset, applied
//!   by the peer supervisor where it writes a `Data` frame, so the
//!   node's own retransmit, reconnect and dedup code absorbs them.

use std::time::Duration;

use ssp_model::ProcessId;

/// The splitmix64 finalizer: the one mixing function behind every
/// seed-deterministic decision of the runtime (and of the load
/// generators built on it).
#[must_use]
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub(crate) fn roll(
    seed: u64,
    salt: u64,
    src: ProcessId,
    dst: ProcessId,
    link_seq: u64,
    attempt: u32,
) -> u64 {
    let mut h = splitmix(seed ^ salt);
    h = splitmix(h ^ src.index() as u64);
    h = splitmix(h ^ dst.index() as u64);
    h = splitmix(h ^ link_seq);
    splitmix(h ^ u64::from(attempt))
}

/// A fault at per-mille rate `pm` fires iff its `roll` falls below it
/// mod 1000.
pub(crate) fn hits(pm: u32, roll: u64) -> bool {
    pm > 0 && roll % 1000 < u64::from(pm)
}

/// Maximum extra delay the reorder fault adds to one delivery attempt.
pub const REORDER_JITTER_MAX: Duration = Duration::from_micros(500);

const SALT_LOSS: u64 = 0x10c5;
const SALT_DUP: u64 = 0xd0b1;
const SALT_REORDER: u64 = 0x0c0c;
/// Socket delay, keyed on seq alone (every copy is delayed alike).
const SALT_SOCKET_DELAY: u64 = 0x9d1a;
/// Socket drop, keyed on seq and attempt (each copy rolls afresh).
const SALT_SOCKET_DROP: u64 = 0x9d0b;

/// Seed-deterministic in-process chaos faults, as per-mille
/// probabilities. Integer rates keep the config `Eq`/hashable and the
/// decisions exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosConfig {
    /// Per-mille probability that one transmission attempt is dropped
    /// (the final attempt of a wire is immune — see
    /// [`MAX_SEND_ATTEMPTS`](crate::MAX_SEND_ATTEMPTS)).
    pub loss_pm: u16,
    /// Per-mille probability that a delivered attempt is duplicated.
    pub dup_pm: u16,
    /// Per-mille probability that a delivery gets extra reorder jitter
    /// (up to [`REORDER_JITTER_MAX`]).
    pub reorder_pm: u16,
}

impl ChaosConfig {
    pub(crate) fn drops(self, seed: u64, s: ProcessId, d: ProcessId, k: u64, a: u32) -> bool {
        hits(self.loss_pm.into(), roll(seed, SALT_LOSS, s, d, k, a))
    }

    pub(crate) fn duplicates(self, seed: u64, s: ProcessId, d: ProcessId, k: u64, a: u32) -> bool {
        hits(self.dup_pm.into(), roll(seed, SALT_DUP, s, d, k, a))
    }

    pub(crate) fn reorder_extra(
        self,
        seed: u64,
        s: ProcessId,
        d: ProcessId,
        k: u64,
        a: u32,
    ) -> Duration {
        let r = roll(seed, SALT_REORDER, s, d, k, a);
        if hits(self.reorder_pm.into(), r) {
            let span = REORDER_JITTER_MAX.as_micros() as u64;
            Duration::from_micros(splitmix(r) % (span + 1))
        } else {
            Duration::ZERO
        }
    }
}

/// Seed-deterministic socket faults on a node's outgoing `Data` frames
/// (`Hello`, `Heartbeat`, `Ack` and `Abort` are never targeted, so the
/// failure detector stays quiet while the synchrony guard is provoked).
/// Probabilities are per-mille.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocketFaults {
    /// Seed for all fault decisions.
    pub seed: u64,
    /// Per-mille probability that a frame is held for `delay`. Keyed
    /// on seq alone, so retransmitted copies are held too: the
    /// reliable layer cannot launder an injected Δ violation away.
    pub delay_pm: u32,
    /// Extra one-way delay of a held frame; it holds every later frame
    /// on its link behind it.
    pub delay: Duration,
    /// Per-mille probability that one copy of a frame is dropped.
    pub drop_pm: u32,
    /// Reset each link's connection once, at its this-many-th data
    /// frame (counting every copy, across reconnects).
    pub reset_after: Option<u64>,
}

impl SocketFaults {
    pub(crate) fn drops(&self, src: ProcessId, dst: ProcessId, seq: u64, attempt: u32) -> bool {
        hits(
            self.drop_pm,
            roll(self.seed, SALT_SOCKET_DROP, src, dst, seq, attempt),
        )
    }

    pub(crate) fn delays(&self, src: ProcessId, dst: ProcessId, seq: u64) -> bool {
        hits(
            self.delay_pm,
            roll(self.seed, SALT_SOCKET_DELAY, src, dst, seq, 0),
        )
    }
}
