//! Client commands, proposal batches, and the replicated key-value
//! state machine the engine drives.
//!
//! A [`Batch`] is the value type the consensus instances agree on: an
//! ordered list of [`Command`]s. It derives exactly the bounds of the
//! model's blanket [`Value`](ssp_model::Value) trait (`Clone + Ord +
//! Hash + Debug + Send`), so every `ssp-rounds` algorithm runs over
//! batches unchanged — `A1` relays them, `CtRounds` rotates them
//! through coordinators, the FloodSet family floods them.

use core::fmt;
use std::collections::BTreeMap;

/// Identifies a client command: the submitting client and its
/// per-client sequence number. Unique per workload, stable across
/// re-proposals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CommandId {
    /// The submitting client.
    pub client: u32,
    /// The client's sequence number (closed loop: strictly increasing,
    /// at most one outstanding).
    pub seq: u32,
}

impl fmt::Display for CommandId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}#{}", self.client, self.seq)
    }
}

/// High bit of [`CommandId::client`], reserved for externally submitted
/// commands (gateway clients). Workload clients are dense small
/// indices; external clients map into the upper half of the id space,
/// so the two populations can never collide.
pub const EXTERNAL_BIT: u32 = 1 << 31;

impl CommandId {
    /// The command identity of an external gateway submission
    /// `(client, req)`.
    ///
    /// # Panics
    ///
    /// Panics if `client` or `req` exceed the wire-protocol bounds
    /// (`client < 2^31`, `req < 2^32`) — the gateway rejects such
    /// sessions before a command is ever formed.
    #[must_use]
    pub fn external(client: u64, req: u64) -> CommandId {
        assert!(client < u64::from(EXTERNAL_BIT), "client id out of range");
        let seq = u32::try_from(req).expect("request id out of range");
        CommandId {
            client: EXTERNAL_BIT | u32::try_from(client).expect("checked above"),
            seq,
        }
    }

    /// Whether this command was submitted by an external gateway
    /// client (as opposed to the seed-deterministic workload). Prepare
    /// markers use a reserved client id with the high bit set but are
    /// control traffic, not external commands — callers that can see
    /// prepares must test for them first.
    #[must_use]
    pub fn is_external(&self) -> bool {
        self.client & EXTERNAL_BIT != 0
    }
}

/// A state-machine operation over the replicated key-value store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    /// Bind `key` to `value`.
    Put {
        /// The key written.
        key: u32,
        /// The value bound to it.
        value: u64,
    },
    /// Remove `key` (a no-op if absent).
    Delete {
        /// The key removed.
        key: u32,
    },
    /// Control marker of a cross-shard transaction: deciding a batch
    /// that contains `Prepare { tx }` is the owning group's `Yes` vote
    /// for transaction `tx` in the subsequent NBAC exchange. Prepare
    /// markers ride through consensus like any other command but are
    /// **never applied** to the store — the transaction's real
    /// operations are applied (or cleanly discarded) only once the
    /// commit outcome is known.
    Prepare {
        /// Dense index of the transaction in the sharded engine's
        /// transaction table.
        tx: u32,
    },
}

/// One client command: an identified state-machine operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Command {
    /// Who submitted it, and in what order.
    pub id: CommandId,
    /// What it does to the store.
    pub op: Op,
}

/// A multi-key transaction: one client submission whose operations
/// span at least two shard groups, committed atomically (all groups
/// apply) or aborted cleanly (no group applies) via non-blocking
/// atomic commit across the owning groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Who submitted it, and in what order — the same identity space
    /// as single-key commands (closed loop: one outstanding per
    /// client, acknowledged at commit *or* abort).
    pub id: CommandId,
    /// The transaction's operations, in application order.
    pub ops: Vec<Op>,
}

/// What a shard-aware client hands the engine per submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientRequest {
    /// A single-key command, routed to its owning group unchanged.
    Single(Command),
    /// A multi-key transaction, prepared in every owning group and
    /// resolved by cross-shard NBAC.
    Cross(Transaction),
}

/// Takes the next `N` bytes off the front of `buf`; `None` on
/// truncation.
pub(crate) fn take<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = buf.split_first_chunk::<N>()?;
    *buf = rest;
    Some(*head)
}

/// Appends one operation in the command codec every payload shares:
/// `tag ‖ LE fields`, 1 = Put `key,value`, 2 = Delete `key`, 3 =
/// Prepare `tx`.
pub(crate) fn put_op(out: &mut Vec<u8>, op: &Op) {
    match *op {
        Op::Put { key, value } => {
            out.push(1);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&value.to_le_bytes());
        }
        Op::Delete { key } => {
            out.push(2);
            out.extend_from_slice(&key.to_le_bytes());
        }
        Op::Prepare { tx } => {
            out.push(3);
            out.extend_from_slice(&tx.to_le_bytes());
        }
    }
}

/// Takes one [`put_op`]-encoded operation off the front of `buf`;
/// `None` on an unknown tag or truncation.
pub(crate) fn take_op(buf: &mut &[u8]) -> Option<Op> {
    let [tag] = take(buf)?;
    Some(match tag {
        1 => Op::Put {
            key: u32::from_le_bytes(take(buf)?),
            value: u64::from_le_bytes(take(buf)?),
        },
        2 => Op::Delete {
            key: u32::from_le_bytes(take(buf)?),
        },
        3 => Op::Prepare {
            tx: u32::from_le_bytes(take(buf)?),
        },
        _ => return None,
    })
}

/// Encodes the operations of one external submission as an opaque
/// gateway payload: `u8 count ‖ ops`, each op in the shared command
/// codec. One op is a single-key command; two or more form a
/// cross-shard transaction. Prepare markers are engine-internal and
/// cannot be encoded.
///
/// # Panics
///
/// Panics on [`Op::Prepare`] or more than 255 operations.
#[must_use]
pub fn encode_external_ops(ops: &[Op]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + ops.len() * 13);
    out.push(u8::try_from(ops.len()).expect("at most 255 ops per submission"));
    for op in ops {
        if let Op::Prepare { tx } = op {
            panic!("prepare marker for tx {tx} is not a client operation");
        }
        put_op(&mut out, op);
    }
    out
}

/// Decodes an external submission payload. `None` means the bytes are
/// corrupt (unknown tag, truncation, trailing garbage, or zero ops) or
/// carry a Prepare marker: a decided prepare is a group's commit vote,
/// so no client may submit one.
#[must_use]
pub fn decode_external_ops(bytes: &[u8]) -> Option<Vec<Op>> {
    let (&count, mut buf) = bytes.split_first()?;
    if count == 0 {
        return None;
    }
    let mut ops = Vec::with_capacity(count as usize);
    for _ in 0..count {
        match take_op(&mut buf)? {
            Op::Prepare { .. } => return None,
            op => ops.push(op),
        }
    }
    buf.is_empty().then_some(ops)
}

/// The unit of agreement: an ordered batch of commands. Proposals are
/// prefixes of the engine's pending queue, so any decided batch (one
/// of the proposals, by validity) is itself a prefix — which is what
/// makes exactly-once commitment structural rather than hopeful.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Batch(pub Vec<Command>);

impl Batch {
    /// Number of commands in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the batch carries no commands.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The batched commands, in proposal order.
    pub fn iter(&self) -> impl Iterator<Item = &Command> {
        self.0.iter()
    }
}

/// The replicated key-value store every decided batch is applied to,
/// in decision order. Two engine runs that decide the same batches in
/// the same order produce equal stores — [`KvStore::digest`] is the
/// one-number witness the determinism tests compare.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvStore {
    map: BTreeMap<u32, u64>,
    applied: u64,
}

impl KvStore {
    /// Applies one operation.
    ///
    /// # Panics
    ///
    /// Panics on [`Op::Prepare`]: prepare markers are consensus-level
    /// control traffic and must be intercepted before state-machine
    /// application — reaching the store would break the exactly-once
    /// accounting the digest witnesses.
    pub fn apply(&mut self, op: &Op) {
        match *op {
            Op::Put { key, value } => {
                self.map.insert(key, value);
            }
            Op::Delete { key } => {
                self.map.remove(&key);
            }
            Op::Prepare { tx } => {
                panic!("prepare marker for tx {tx} reached the state machine")
            }
        }
        self.applied += 1;
    }

    /// Number of live keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Operations applied so far.
    #[must_use]
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Current value of `key`.
    #[must_use]
    pub fn get(&self, key: u32) -> Option<u64> {
        self.map.get(&key).copied()
    }

    /// Order-sensitive FNV-1a digest over the applied-operation count
    /// and every live `(key, value)` pair. Equal digests over the same
    /// workload mean the replicated state machines converged.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(self.applied);
        for (&k, &v) in &self.map {
            eat(u64::from(k));
            eat(v);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_digest_is_order_sensitive() {
        let mut a = KvStore::default();
        let mut b = KvStore::default();
        a.apply(&Op::Put { key: 1, value: 10 });
        a.apply(&Op::Put { key: 1, value: 20 });
        b.apply(&Op::Put { key: 1, value: 20 });
        b.apply(&Op::Put { key: 1, value: 10 });
        assert_ne!(a.digest(), b.digest(), "last-writer-wins must show");
        assert_eq!(a.get(1), Some(20));
        assert_eq!(b.get(1), Some(10));
    }

    #[test]
    fn delete_removes_and_counts() {
        let mut kv = KvStore::default();
        kv.apply(&Op::Put { key: 7, value: 1 });
        kv.apply(&Op::Delete { key: 7 });
        kv.apply(&Op::Delete { key: 7 });
        assert!(kv.is_empty());
        assert_eq!(kv.applied(), 3);
    }

    #[test]
    #[should_panic(expected = "prepare marker")]
    fn prepare_markers_never_reach_the_store() {
        let mut kv = KvStore::default();
        kv.apply(&Op::Prepare { tx: 3 });
    }

    #[test]
    fn external_ids_partition_the_client_space() {
        let id = CommandId::external(7, 3);
        assert!(id.is_external());
        assert_eq!(id.seq, 3);
        assert_eq!(id.client & !EXTERNAL_BIT, 7);
        let seed = CommandId { client: 7, seq: 3 };
        assert!(!seed.is_external());
        assert_ne!(id, seed);
    }

    #[test]
    fn external_op_codec_roundtrips_and_rejects_corruption() {
        for ops in [
            vec![Op::Put { key: 4, value: 99 }],
            vec![Op::Delete { key: 0 }],
            vec![
                Op::Put { key: 1, value: 2 },
                Op::Put {
                    key: 3,
                    value: u64::MAX,
                },
            ],
        ] {
            let bytes = encode_external_ops(&ops);
            assert_eq!(decode_external_ops(&bytes), Some(ops));
        }
        assert_eq!(decode_external_ops(&[]), None, "empty");
        assert_eq!(decode_external_ops(&[0]), None, "zero ops");
        assert_eq!(decode_external_ops(&[1, 9]), None, "unknown tag");
        assert_eq!(
            decode_external_ops(&[1, 3, 5, 0, 0, 0]),
            None,
            "a client can never submit a prepare marker (a group's commit vote)"
        );
        let mut bytes = encode_external_ops(&[Op::Put { key: 1, value: 2 }]);
        bytes.push(0);
        assert_eq!(decode_external_ops(&bytes), None, "trailing byte");
        bytes.pop();
        bytes.pop();
        assert_eq!(decode_external_ops(&bytes), None, "truncated");
    }

    #[test]
    fn batches_order_like_their_command_lists() {
        let cmd = |seq| Command {
            id: CommandId { client: 0, seq },
            op: Op::Put { key: 0, value: 0 },
        };
        let short = Batch(vec![cmd(0)]);
        let long = Batch(vec![cmd(0), cmd(1)]);
        // A shorter prefix sorts before its extension: FloodSet-style
        // min-of-proposals decisions still pick a proposal prefix.
        assert!(short < long);
    }
}
