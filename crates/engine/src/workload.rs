//! Seed-deterministic closed-loop workload generator: `N` logical
//! clients issuing key-value commands over a Zipf-distributed key
//! space.
//!
//! *Closed loop* means each client has at most one command in flight:
//! it submits its next command only after the previous one was decided
//! by some consensus instance and acknowledged back. The submission
//! rate therefore adapts to the engine's decision rate — exactly the
//! regime where Theorem 5.2's per-instance latency gap (Λ = 1 in `RS`
//! vs Λ ≥ 2 in `RWS`) compounds into a throughput gap.
//!
//! The Zipf sampler uses precomputed cumulative integer weights
//! (`w_k ∝ 1/(k+1)^s`, fixed-point) and the workspace's seeded
//! [`StdRng`]: the same seed yields the same command stream, byte for
//! byte.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::command::{ClientRequest, Command, CommandId, Op, Transaction};
use crate::shard::GroupRouter;

/// Probability that a single-key command is a `Delete` instead of a
/// `Put`.
const DELETE_PROB: f64 = 0.1;

/// Sizing knobs of a [`Workload`].
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of logical clients.
    pub clients: usize,
    /// Size of the key space.
    pub keys: u32,
    /// Zipf skew exponent `s` (`0.0` = uniform; `~1.0` = classic web
    /// skew).
    pub skew: f64,
    /// Per-client command budget; `None` runs the workload open-ended.
    pub commands_per_client: Option<u32>,
    /// Number of shard groups the key space is partitioned over.
    /// Shapes only *cross-shard* generation — single-key commands are
    /// identical for every `shards` value.
    pub shards: usize,
    /// Fraction of submissions that are multi-key cross-shard
    /// transactions. With the default `0.0` the generator draws
    /// nothing extra from the RNG, keeping the command stream
    /// byte-identical to a shard-oblivious workload on the same seed.
    pub cross_shard_rate: f64,
}

impl WorkloadConfig {
    /// A small default mix: skewed puts with occasional deletes,
    /// single-group, no cross-shard traffic.
    #[must_use]
    pub fn new(clients: usize) -> Self {
        WorkloadConfig {
            clients,
            keys: 64,
            skew: 1.0,
            commands_per_client: None,
            shards: 1,
            cross_shard_rate: 0.0,
        }
    }

    /// Whether this workload ever emits cross-shard transactions.
    #[must_use]
    pub fn cross_shard(&self) -> bool {
        self.cross_shard_rate > 0.0 && self.shards > 1
    }
}

/// The closed-loop generator. Deterministic per `(seed, config)`.
#[derive(Debug)]
pub struct Workload {
    cfg: WorkloadConfig,
    rng: StdRng,
    /// Cumulative fixed-point Zipf weights over the key space.
    cumulative: Vec<u64>,
    router: GroupRouter,
    next_seq: Vec<u32>,
    in_flight: Vec<bool>,
    submitted: u64,
}

/// Fixed-point scale for the Zipf weights.
const WEIGHT_SCALE: f64 = 1e9;

impl Workload {
    /// Builds a workload; the key distribution is precomputed once.
    ///
    /// # Panics
    ///
    /// Panics if `clients` or `keys` is zero, if `cross_shard_rate` is
    /// not a probability, or if cross-shard traffic is requested over
    /// a key space that does not span at least two groups.
    #[must_use]
    pub fn new(seed: u64, cfg: WorkloadConfig) -> Self {
        assert!(cfg.clients > 0, "need at least one client");
        assert!(cfg.keys > 0, "need a non-empty key space");
        assert!(
            (0.0..=1.0).contains(&cfg.cross_shard_rate),
            "cross-shard rate must be a probability, got {}",
            cfg.cross_shard_rate
        );
        let router = GroupRouter::new(cfg.shards.max(1));
        if cfg.cross_shard() {
            let first = router.group_of(0);
            assert!(
                (1..cfg.keys).any(|k| router.group_of(k) != first),
                "cross-shard workload needs keys in at least two groups \
                 (keys={}, shards={})",
                cfg.keys,
                cfg.shards
            );
        }
        let mut cumulative = Vec::with_capacity(cfg.keys as usize);
        let mut total = 0u64;
        for k in 0..cfg.keys {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let w = (WEIGHT_SCALE / f64::from(k + 1).powf(cfg.skew)).max(1.0) as u64;
            total += w;
            cumulative.push(total);
        }
        Workload {
            rng: StdRng::seed_from_u64(seed ^ 0x5ee0_57a7_c11e_2075_u64),
            cumulative,
            router,
            next_seq: vec![0; cfg.clients],
            in_flight: vec![false; cfg.clients],
            submitted: 0,
            cfg,
        }
    }

    /// One Zipf draw over the key space.
    fn zipf_key(&mut self) -> u32 {
        let total = *self.cumulative.last().expect("non-empty key space");
        let r = self.rng.gen_range(0..total);
        #[allow(clippy::cast_possible_truncation)]
        let k = self.cumulative.partition_point(|&c| c <= r) as u32;
        k
    }

    /// Closed-loop tick: every client with no command in flight (and
    /// budget remaining) submits its next request, client order.
    ///
    /// The cross-shard coin is drawn *only* when
    /// [`WorkloadConfig::cross_shard`] holds — with the default rate of
    /// `0.0` the RNG draw sequence (Zipf key → delete coin → value) is
    /// exactly the shard-oblivious one, so the command stream stays
    /// byte-identical across `shards` values on the same seed.
    pub fn poll_requests(&mut self) -> Vec<ClientRequest> {
        let mut out = Vec::new();
        for client in 0..self.cfg.clients {
            if self.in_flight[client] {
                continue;
            }
            if let Some(budget) = self.cfg.commands_per_client {
                if self.next_seq[client] >= budget {
                    continue;
                }
            }
            #[allow(clippy::cast_possible_truncation)]
            let id = CommandId {
                client: client as u32,
                seq: self.next_seq[client],
            };
            self.next_seq[client] += 1;
            let cross = self.cfg.cross_shard() && self.rng.gen_bool(self.cfg.cross_shard_rate);
            self.in_flight[client] = true;
            self.submitted += 1;
            if cross {
                out.push(ClientRequest::Cross(self.cross_transaction(id)));
            } else {
                let key = self.zipf_key();
                let delete = self.rng.gen_bool(DELETE_PROB);
                let op = if delete {
                    Op::Delete { key }
                } else {
                    Op::Put {
                        key,
                        value: self.rng.gen_range(0..u64::from(u32::MAX)),
                    }
                };
                out.push(ClientRequest::Single(Command { id, op }));
            }
        }
        out
    }

    /// Draws one two-key transaction spanning two distinct groups: the
    /// first key is a plain Zipf draw; the second retries the Zipf
    /// sampler a bounded number of times for a key in a *different*
    /// group and falls back to a deterministic key-space scan, so the
    /// draw count — hence the downstream stream — stays bounded and
    /// seed-deterministic.
    fn cross_transaction(&mut self, id: CommandId) -> Transaction {
        let key_a = self.zipf_key();
        let home = self.router.group_of(key_a);
        let mut key_b = None;
        for _ in 0..16 {
            let candidate = self.zipf_key();
            if self.router.group_of(candidate) != home {
                key_b = Some(candidate);
                break;
            }
        }
        let key_b = key_b.unwrap_or_else(|| {
            (0..self.cfg.keys)
                .find(|&k| self.router.group_of(k) != home)
                .expect("checked at construction: key space spans two groups")
        });
        let value_a = self.rng.gen_range(0..u64::from(u32::MAX));
        let value_b = self.rng.gen_range(0..u64::from(u32::MAX));
        Transaction {
            id,
            ops: vec![
                Op::Put {
                    key: key_a,
                    value: value_a,
                },
                Op::Put {
                    key: key_b,
                    value: value_b,
                },
            ],
        }
    }

    /// Single-group compatibility tick: like
    /// [`poll_requests`](Workload::poll_requests) but returns plain
    /// commands.
    ///
    /// # Panics
    ///
    /// Panics if the workload generated a cross-shard transaction —
    /// callers of this path must keep `cross_shard_rate` at `0.0`.
    pub fn poll(&mut self) -> Vec<Command> {
        self.poll_requests()
            .into_iter()
            .map(|req| match req {
                ClientRequest::Single(cmd) => cmd,
                ClientRequest::Cross(tx) => panic!(
                    "cross-shard transaction {} polled through the single-group path",
                    tx.id
                ),
            })
            .collect()
    }

    /// Acknowledges a decided command: its client may submit again on
    /// the next [`poll`](Workload::poll).
    pub fn acknowledge(&mut self, id: CommandId) {
        if let Some(slot) = self.in_flight.get_mut(id.client as usize) {
            *slot = false;
        }
    }

    /// Commands submitted so far (cross-shard transactions count once).
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Whether a budgeted workload has both exhausted every client's
    /// budget and seen every submitted command acknowledged. Open-ended
    /// workloads never drain.
    #[must_use]
    pub fn drained(&self) -> bool {
        let Some(budget) = self.cfg.commands_per_client else {
            return false;
        };
        self.next_seq.iter().all(|&s| s >= budget) && self.in_flight.iter().all(|&f| !f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Workload::new(9, WorkloadConfig::new(4));
        let mut b = Workload::new(9, WorkloadConfig::new(4));
        for _ in 0..5 {
            let ca = a.poll();
            let cb = b.poll();
            assert_eq!(ca, cb);
            for c in ca {
                a.acknowledge(c.id);
                b.acknowledge(c.id);
            }
        }
        assert_eq!(a.submitted(), 20);
    }

    #[test]
    fn closed_loop_holds_one_command_per_client() {
        let mut w = Workload::new(3, WorkloadConfig::new(3));
        let first = w.poll();
        assert_eq!(first.len(), 3, "every client submits once");
        assert!(w.poll().is_empty(), "nothing new until acknowledged");
        w.acknowledge(first[1].id);
        let second = w.poll();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].id.client, 1);
        assert_eq!(second[0].id.seq, 1);
    }

    #[test]
    fn budgeted_workload_drains() {
        let mut cfg = WorkloadConfig::new(2);
        cfg.commands_per_client = Some(2);
        let mut w = Workload::new(1, cfg);
        assert!(!w.drained());
        for _ in 0..4 {
            for c in w.poll() {
                w.acknowledge(c.id);
            }
        }
        assert!(w.poll().is_empty(), "budget exhausted");
        assert!(w.drained());
        assert_eq!(w.submitted(), 4);
    }

    #[test]
    fn zipf_skews_toward_small_keys() {
        let mut cfg = WorkloadConfig::new(1);
        cfg.keys = 32;
        cfg.skew = 1.2;
        let mut w = Workload::new(5, cfg);
        let mut low = 0u32;
        let draws = 4_000;
        for _ in 0..draws {
            if w.zipf_key() < 4 {
                low += 1;
            }
        }
        // The first 4 of 32 keys carry well over an eighth of the mass.
        assert!(low > draws / 4, "low-key draws: {low}/{draws}");
    }
}
