//! Engine statistics: a deterministic core (byte-identical JSON per
//! seed) plus human-facing wall-clock metrics.
//!
//! The split matters. Decide rounds, command counts, crash/retire/
//! degrade tallies and the KV digest are functions of the seeded fault
//! plans and the round structure — identical across runs of the same
//! configuration *and across clock backends*. Elapsed durations and
//! transport counters (delivery, retransmission, shutdown-stranding)
//! are *not*: the early-retire fast path shuts instances down while
//! burst wires are still in flight, so whether a given wire counts as
//! delivered or stranded is a race (and under the virtual backend the
//! durations are simulated time, not wall time at all).
//! [`EngineStats::to_json`] therefore serializes only the
//! deterministic core; everything timing-flavoured stays in the
//! [`Display`](core::fmt::Display) report.

use core::fmt;
use std::time::Duration;

use ssp_runtime::{GatewayStats, TransportStats};

/// Cumulative statistics of one engine run.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Algorithm name (`RoundAlgorithm::name`).
    pub algo: String,
    /// Round model the instances ran under (`"rs"` / `"rws"`).
    pub model: String,
    /// Number of processes.
    pub n: usize,
    /// Fault bound per instance.
    pub t: usize,
    /// Engine seed (instance seeds derive from it).
    pub seed: u64,
    /// Instances executed.
    pub instances: u64,
    /// Instances that decided a batch.
    pub decided_instances: u64,
    /// Instances that decided nothing (aborted runs only).
    pub undecided_instances: u64,
    /// Commands submitted by clients.
    pub commands_submitted: u64,
    /// Commands decided (exactly once each).
    pub commands_decided: u64,
    /// Commands still pending when the engine stopped.
    pub pending_at_shutdown: u64,
    /// Distinct commands proposed in more than one instance.
    pub reproposed: u64,
    /// Instances whose fault plan crashed at least one process.
    pub crashed_instances: u64,
    /// Instances where at least one process took the early-retire
    /// fast path.
    pub retired_instances: u64,
    /// Instances the watchdog downgraded to `RWS`.
    pub degraded_instances: u64,
    /// Per-decided-instance decide latency, in rounds (the outcome's
    /// latency degree).
    pub decide_rounds: Vec<u32>,
    /// Digest of the final replicated KV store.
    pub kv_digest: u64,
    /// Instances audited by the background pipeline.
    pub audit_checked: u64,
    /// Audited instances that violated the consensus spec.
    pub audit_violations: u64,
    /// Audited instances that diverged from the round models.
    pub audit_divergences: u64,
    /// Total elapsed time of the run (human report only): wall clock
    /// under the real backend, summed simulated instance time under
    /// the virtual backend.
    pub elapsed: Duration,
    /// Per-instance elapsed durations (human report only): wall clock
    /// under the real backend, simulated time under the virtual one.
    pub instance_wall: Vec<Duration>,
    /// Socket-transport counters for real-network runs (human report
    /// only, `None` for in-process runs): reconnects, retransmits and
    /// backoff are timing races, so they live with the wall-clock
    /// metrics, never in the deterministic JSON core.
    pub transport: Option<TransportStats>,
    /// Gateway admission counters for runs serving external clients
    /// (human report only, `None` otherwise): how many submissions
    /// arrived, deduped, bounced `Busy` or got redirected depends on
    /// client and network timing, so the counters stay out of the
    /// deterministic JSON core just like [`TransportStats`].
    pub gateway: Option<GatewayStats>,
}

fn percentile(sorted: &[u32], pct: u32) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() - 1) * pct as usize / 100;
    sorted[rank]
}

fn percentile_ms(sorted: &[Duration], pct: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() - 1) * pct as usize / 100;
    sorted[rank].as_secs_f64() * 1e3
}

impl EngineStats {
    /// Median decide latency over decided instances, in rounds.
    #[must_use]
    pub fn decide_rounds_p50(&self) -> u32 {
        let mut v = self.decide_rounds.clone();
        v.sort_unstable();
        percentile(&v, 50)
    }

    /// 99th-percentile decide latency over decided instances, in
    /// rounds.
    #[must_use]
    pub fn decide_rounds_p99(&self) -> u32 {
        let mut v = self.decide_rounds.clone();
        v.sort_unstable();
        percentile(&v, 99)
    }

    /// Sum of decide latencies (rounds actually paid for decisions).
    #[must_use]
    pub fn decide_rounds_total(&self) -> u64 {
        self.decide_rounds.iter().map(|&r| u64::from(r)).sum()
    }

    /// Decided instances per elapsed second (human report only):
    /// per wall-clock second under the real backend, per *simulated*
    /// second under the virtual one.
    #[must_use]
    pub fn instances_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            #[allow(clippy::cast_precision_loss)]
            {
                self.decided_instances as f64 / secs
            }
        } else {
            0.0
        }
    }

    /// Serializes the deterministic core as a single JSON object with
    /// fixed key order. Two runs of the same seeded configuration
    /// produce byte-identical output; wall-clock and transport
    /// counters are deliberately excluded (see the module docs).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"algo\":{:?},\"model\":{:?},\"n\":{},\"t\":{},\"seed\":{},\
             \"instances\":{},\"decided_instances\":{},\"undecided_instances\":{},\
             \"commands_submitted\":{},\"commands_decided\":{},\"pending_at_shutdown\":{},\
             \"reproposed\":{},\"crashed_instances\":{},\"retired_instances\":{},\
             \"degraded_instances\":{},\"decide_rounds_total\":{},\"decide_rounds_p50\":{},\
             \"decide_rounds_p99\":{},\"kv_digest\":{},\"audit_checked\":{},\
             \"audit_violations\":{},\"audit_divergences\":{}}}\n",
            self.algo,
            self.model,
            self.n,
            self.t,
            self.seed,
            self.instances,
            self.decided_instances,
            self.undecided_instances,
            self.commands_submitted,
            self.commands_decided,
            self.pending_at_shutdown,
            self.reproposed,
            self.crashed_instances,
            self.retired_instances,
            self.degraded_instances,
            self.decide_rounds_total(),
            self.decide_rounds_p50(),
            self.decide_rounds_p99(),
            self.kv_digest,
            self.audit_checked,
            self.audit_violations,
            self.audit_divergences,
        )
    }
}

impl EngineStats {
    /// Order-invariant fold of per-group deterministic cores into one
    /// service-wide core: counters sum, decide latencies merge sorted,
    /// and the KV digests XOR (each group owns a disjoint key
    /// partition, so the fold is a digest of the union).
    ///
    /// Identity on a single group up to `decide_rounds` ordering —
    /// which the JSON core never observes, since it serializes only
    /// order-insensitive reductions (total, p50, p99). The aggregate of
    /// a one-group run therefore serializes byte-identically to the
    /// group itself. Shape metadata (`algo`, `model`, `n`, `t`, `seed`)
    /// comes from the first group: group 0 carries the engine seed
    /// verbatim.
    ///
    /// Wall-clock fields are deliberately left at their defaults —
    /// group timelines are concurrent, so summing them would be
    /// fiction; the sharded elapsed time lives in
    /// [`ShardedStats::elapsed`].
    #[must_use]
    pub fn aggregate(groups: &[EngineStats]) -> EngineStats {
        let mut agg = EngineStats::default();
        if let Some(first) = groups.first() {
            agg.algo.clone_from(&first.algo);
            agg.model.clone_from(&first.model);
            agg.n = first.n;
            agg.t = first.t;
            agg.seed = first.seed;
        }
        for g in groups {
            agg.instances += g.instances;
            agg.decided_instances += g.decided_instances;
            agg.undecided_instances += g.undecided_instances;
            agg.commands_submitted += g.commands_submitted;
            agg.commands_decided += g.commands_decided;
            agg.pending_at_shutdown += g.pending_at_shutdown;
            agg.reproposed += g.reproposed;
            agg.crashed_instances += g.crashed_instances;
            agg.retired_instances += g.retired_instances;
            agg.degraded_instances += g.degraded_instances;
            agg.kv_digest ^= g.kv_digest;
            agg.decide_rounds.extend_from_slice(&g.decide_rounds);
            agg.audit_checked += g.audit_checked;
            agg.audit_violations += g.audit_violations;
            agg.audit_divergences += g.audit_divergences;
        }
        agg.decide_rounds.sort_unstable();
        agg
    }
}

/// Cross-shard transaction counters of one sharded run — all
/// deterministic per seeded configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrossShardStats {
    /// Cross-shard transactions registered (each counts once, like a
    /// single-key command).
    pub submitted: u64,
    /// Transactions the NBAC exchange decided `Commit` — every
    /// operation applied in its owning group.
    pub committed: u64,
    /// Transactions the exchange decided `Abort` — no operation
    /// applied anywhere.
    pub aborted: u64,
    /// Prepare markers decided by their group in time (on-time `Yes`
    /// votes).
    pub prepares_decided: u64,
    /// Prepare markers decided *after* their transaction resolved —
    /// harmless no-ops, counted for visibility.
    pub late_prepares: u64,
    /// `No` votes recorded because a group failed to decide the
    /// prepare within the patience window.
    pub timeout_no_votes: u64,
    /// Exchanges whose every vote reached a surviving participant (the
    /// SDD-boosted non-triviality premise held).
    pub votes_survived: u64,
    /// Exchanges the NBAC spec checker flagged — must be zero on a
    /// clean run; the CLI exits nonzero otherwise.
    pub nbac_violations: u64,
}

impl CrossShardStats {
    /// Fraction of resolved transactions that committed.
    #[must_use]
    pub fn commit_rate(&self) -> f64 {
        let resolved = self.committed + self.aborted;
        if resolved == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.committed as f64 / resolved as f64
        }
    }

    /// The counters as a fixed-shape JSON fragment (no trailing
    /// newline; embedded by [`ShardedStats::to_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"submitted\":{},\"committed\":{},\"aborted\":{},\"prepares_decided\":{},\
             \"late_prepares\":{},\"timeout_no_votes\":{},\"votes_survived\":{},\
             \"nbac_violations\":{}}}",
            self.submitted,
            self.committed,
            self.aborted,
            self.prepares_decided,
            self.late_prepares,
            self.timeout_no_votes,
            self.votes_survived,
            self.nbac_violations,
        )
    }
}

/// Statistics of one sharded engine run: the per-group deterministic
/// cores, their order-invariant aggregate, and the cross-shard commit
/// counters.
#[derive(Debug, Clone, Default)]
pub struct ShardedStats {
    /// Number of consensus groups.
    pub shards: usize,
    /// Lock-step ticks the sharded loop executed (each tick runs at
    /// most one instance per group).
    pub ticks: u64,
    /// Cross-shard transaction counters.
    pub cross: CrossShardStats,
    /// Per-group deterministic cores, group order.
    pub groups: Vec<EngineStats>,
    /// Elapsed time of the sharded run (human report only). Under the
    /// virtual backend this is **concurrent** simulated time: the sum
    /// over ticks of the slowest group's instance time — `G` groups
    /// deciding in parallel pay one group's latency per tick, which is
    /// exactly the throughput-scaling claim the bench measures. Under
    /// the real backend it is plain wall clock (groups execute
    /// sequentially in-process).
    pub elapsed: Duration,
    /// Gateway admission counters when an external source was attached
    /// (human report only, `None` otherwise) — excluded from the
    /// deterministic JSON core for the same reason as
    /// [`EngineStats::gateway`].
    pub gateway: Option<GatewayStats>,
}

impl ShardedStats {
    /// The order-invariant aggregate of the per-group cores.
    #[must_use]
    pub fn aggregate(&self) -> EngineStats {
        EngineStats::aggregate(&self.groups)
    }

    /// Client commands resolved exactly once: single-key commands
    /// decided by their group plus committed cross-shard transactions
    /// (each counting once, matching the workload's submission
    /// accounting).
    #[must_use]
    pub fn commands_resolved(&self) -> u64 {
        self.groups.iter().map(|g| g.commands_decided).sum::<u64>() + self.cross.committed
    }

    /// Resolved commands per elapsed second — per *simulated* second
    /// under the virtual backend (see [`ShardedStats::elapsed`]).
    #[must_use]
    pub fn commands_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            #[allow(clippy::cast_precision_loss)]
            {
                self.commands_resolved() as f64 / secs
            }
        } else {
            0.0
        }
    }

    /// Serializes the deterministic core: shard count, tick count,
    /// cross-shard counters, the aggregate core, and every per-group
    /// core, fixed key order. Byte-identical across runs of the same
    /// seeded configuration; wall clock is excluded.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"shards\":{},\"ticks\":{},\"cross\":{},\"aggregate\":{},\"groups\":[",
            self.shards,
            self.ticks,
            self.cross.to_json(),
            self.aggregate().to_json().trim_end(),
        );
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(g.to_json().trim_end());
        }
        out.push_str("]}\n");
        out
    }
}

impl fmt::Display for ShardedStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let agg = self.aggregate();
        writeln!(
            f,
            "{} shard groups, {} ticks: {} instances, {} decided, {} undecided; \
             {:.1} commands/s over {:.2} s",
            self.shards,
            self.ticks,
            agg.instances,
            agg.decided_instances,
            agg.undecided_instances,
            self.commands_per_sec(),
            self.elapsed.as_secs_f64(),
        )?;
        writeln!(
            f,
            "  cross-shard: {} submitted, {} committed, {} aborted ({:.0}% commit), \
             {} on-time prepares, {} late, {} timeout No votes, {} NBAC violations",
            self.cross.submitted,
            self.cross.committed,
            self.cross.aborted,
            self.cross.commit_rate() * 100.0,
            self.cross.prepares_decided,
            self.cross.late_prepares,
            self.cross.timeout_no_votes,
            self.cross.nbac_violations,
        )?;
        write!(
            f,
            "  aggregate: {} submitted, {} decided exactly once, {} pending at shutdown; \
             audit {} checked, {} violations, {} divergences; kv digest {:#018x}",
            agg.commands_submitted,
            agg.commands_decided,
            agg.pending_at_shutdown,
            agg.audit_checked,
            agg.audit_violations,
            agg.audit_divergences,
            agg.kv_digest,
        )?;
        if let Some(g) = &self.gateway {
            write!(
                f,
                "\n  gateway: {} admitted, {} deduped, {} busy-rejected, {} redirects",
                g.admitted, g.deduped, g.busy_rejected, g.redirects,
            )?;
        }
        for (g, stats) in self.groups.iter().enumerate() {
            write!(
                f,
                "\n  group {g} (seed {}): {} instances, {} decided, {} commands, \
                 p50 {} / p99 {} rounds, kv digest {:#018x}",
                stats.seed,
                stats.instances,
                stats.decided_instances,
                stats.commands_decided,
                stats.decide_rounds_p50(),
                stats.decide_rounds_p99(),
                stats.kv_digest,
            )?;
        }
        Ok(())
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wall = self.instance_wall.clone();
        wall.sort_unstable();
        writeln!(
            f,
            "{} in {} (n={}, t={}, seed {}): {} instances, {} decided, {} undecided",
            self.algo,
            self.model.to_uppercase(),
            self.n,
            self.t,
            self.seed,
            self.instances,
            self.decided_instances,
            self.undecided_instances,
        )?;
        writeln!(
            f,
            "  commands: {} submitted, {} decided exactly once, {} re-proposed, {} pending at shutdown",
            self.commands_submitted, self.commands_decided, self.reproposed, self.pending_at_shutdown,
        )?;
        writeln!(
            f,
            "  faults: {} crashed instances, {} degraded; fast path: {} retired",
            self.crashed_instances, self.degraded_instances, self.retired_instances,
        )?;
        writeln!(
            f,
            "  decide latency: p50 {} / p99 {} rounds; {:.1} instances/s \
             (wall p50 {:.1} ms, p99 {:.1} ms, total {:.2} s)",
            self.decide_rounds_p50(),
            self.decide_rounds_p99(),
            self.instances_per_sec(),
            percentile_ms(&wall, 50),
            percentile_ms(&wall, 99),
            self.elapsed.as_secs_f64(),
        )?;
        write!(
            f,
            "  audit: {} checked, {} violations, {} divergences; kv digest {:#018x}",
            self.audit_checked, self.audit_violations, self.audit_divergences, self.kv_digest,
        )?;
        if let Some(t) = &self.transport {
            write!(
                f,
                "\n  transport: {} delivered, {} dup-suppressed, {} retransmits, \
                 {} reconnects ({:.1} ms backoff), {} late frames, \
                 {} stale-epoch drops, {} corrupt drops; \
                 max one-way delay {:.1} ms, longest live silence {:.1} ms",
                t.delivered,
                t.dup_suppressed,
                t.retransmits,
                t.reconnects,
                t.backoff_micros as f64 / 1e3,
                t.late_frames,
                t.stale_epoch_drops,
                t.corrupt_drops,
                t.max_delay_micros as f64 / 1e3,
                t.max_silence_micros as f64 / 1e3,
            )?;
        }
        if let Some(g) = &self.gateway {
            write!(
                f,
                "\n  gateway: {} admitted, {} deduped, {} busy-rejected, {} redirects",
                g.admitted, g.deduped, g.busy_rejected, g.redirects,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_fixed_shape_and_no_wall_clock() {
        let mut s = EngineStats {
            algo: "A1".into(),
            model: "rs".into(),
            n: 3,
            t: 1,
            seed: 7,
            instances: 2,
            decided_instances: 2,
            decide_rounds: vec![1, 2],
            elapsed: Duration::from_secs(5),
            ..EngineStats::default()
        };
        let a = s.to_json();
        s.elapsed = Duration::from_secs(50);
        s.instance_wall.push(Duration::from_millis(3));
        s.transport = Some(TransportStats {
            reconnects: 3,
            retransmits: 9,
            max_delay_micros: 1_500,
            max_silence_micros: 31_300,
            ..TransportStats::default()
        });
        s.gateway = Some(GatewayStats {
            admitted: 12,
            deduped: 2,
            busy_rejected: 1,
            redirects: 4,
        });
        let b = s.to_json();
        assert_eq!(
            a, b,
            "wall clock, transport and gateway jitter must not leak into the JSON"
        );
        assert!(
            format!("{s}").contains("transport: "),
            "transport counters belong in the human report"
        );
        assert!(
            format!("{s}").contains("max one-way delay 1.5 ms, longest live silence 31.3 ms"),
            "the detector's margin belongs in the human report: {s}"
        );
        assert!(
            format!("{s}").contains("gateway: 12 admitted, 2 deduped"),
            "gateway counters belong in the human report"
        );
        assert!(a.starts_with("{\"algo\":\"A1\",\"model\":\"rs\""));
        assert!(a.contains("\"decide_rounds_p50\":1"));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn aggregate_is_order_invariant_and_identity_on_one_group() {
        let group = |seed: u64, digest: u64, rounds: Vec<u32>| EngineStats {
            algo: "A1".into(),
            model: "rs".into(),
            n: 3,
            t: 1,
            seed,
            instances: 4,
            decided_instances: 4,
            commands_decided: 9,
            kv_digest: digest,
            decide_rounds: rounds,
            ..EngineStats::default()
        };
        let a = group(7, 0xaaaa, vec![2, 1]);
        let b = group(8, 0xbbbb, vec![1, 3]);
        let ab = EngineStats::aggregate(&[a.clone(), b.clone()]);
        let ba = EngineStats::aggregate(&[b.clone(), a.clone()]);
        assert_eq!(ab.kv_digest, ba.kv_digest, "XOR fold commutes");
        assert_eq!(ab.decide_rounds, ba.decide_rounds, "sorted merge commutes");
        assert_eq!(ab.commands_decided, 18);
        assert_eq!(ab.instances, 8);
        let solo = EngineStats::aggregate(std::slice::from_ref(&a));
        assert_eq!(
            solo.to_json(),
            a.to_json(),
            "one-group aggregate serializes identically to the group"
        );
    }

    #[test]
    fn sharded_json_is_fixed_shape_without_wall_clock() {
        let mut s = ShardedStats {
            shards: 2,
            ticks: 5,
            cross: CrossShardStats {
                submitted: 3,
                committed: 2,
                aborted: 1,
                ..CrossShardStats::default()
            },
            groups: vec![EngineStats::default(), EngineStats::default()],
            elapsed: Duration::from_secs(1),
            gateway: None,
        };
        let a = s.to_json();
        s.elapsed = Duration::from_secs(9);
        s.gateway = Some(GatewayStats {
            admitted: 7,
            ..GatewayStats::default()
        });
        let b = s.to_json();
        assert_eq!(
            a, b,
            "elapsed and gateway counters must not leak into the sharded JSON"
        );
        assert!(format!("{s}").contains("gateway: 7 admitted"));
        assert!(a.starts_with("{\"shards\":2,\"ticks\":5,\"cross\":{\"submitted\":3"));
        assert!(a.contains("\"aggregate\":{\"algo\":"));
        assert!(a.contains("\"groups\":[{"));
        assert!(a.ends_with("]}\n"));
        assert!((s.cross.commit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!(format!("{s}").contains("cross-shard: 3 submitted"));
    }

    #[test]
    fn percentiles_on_empty_and_singleton() {
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[4], 50), 4);
        let s = EngineStats {
            decide_rounds: vec![1, 1, 1, 2],
            ..EngineStats::default()
        };
        assert_eq!(s.decide_rounds_p50(), 1);
        assert_eq!(
            s.decide_rounds_p99(),
            1,
            "nearest rank: floor(0.99 * 3) = 2"
        );
        assert_eq!(s.decide_rounds_total(), 5);
        // With 101 samples the 99th percentile reaches the tail.
        let mut tail = vec![1u32; 99];
        tail.extend([7, 9]);
        let s = EngineStats {
            decide_rounds: tail,
            ..EngineStats::default()
        };
        assert_eq!(s.decide_rounds_p99(), 7);
    }
}
