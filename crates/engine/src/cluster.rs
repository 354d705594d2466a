//! Multi-process serving: one OS process per consensus process over
//! the socket transport, plus the parent-side merge that certifies
//! real-network executions with the same
//! [`audit_instance`] pipeline as in-process
//! runs.
//!
//! The scheme leans on one structural fact: the workload and the
//! proposal queue are pure functions of `(seed, decided history)`.
//! Every node replicates the client population and the proposer
//! locally, so the per-process proposals of instance `k` are identical
//! across nodes *and* identical to what an in-process engine run with
//! the same seed would build — which is what makes the loopback
//! conformance diff (socket trace vs virtual-clock oracle) and the
//! parent-side replay possible at all.
//!
//! Per instance, every node runs `A1`'s rounds on the threaded
//! driver's own round core ([`RoundCore`]): a send phase (explicit
//! null wires included), then the shared collect loop, which closes on
//! a full row or on PFD suspicion ([`TimeoutFd`]) plus the `RS` drain —
//! suspicion only ever comes from the timeout, never from socket
//! state, so a `kill -9`'d peer surfaces exactly the way §3's detector
//! construction says it must. The drain is anchored at the suspicion,
//! not at the round: a missing wire is declared absent once its sender
//! has been silent for `fd_timeout + drain`, so each silence pays the
//! drain once and a long-dead peer costs later rounds nothing. A peer
//! that speaks again is trusted again, and a fresh silence pays a
//! fresh drain. Each node appends its observations to a
//! line-oriented report file; the parent tails those files, replays
//! the proposer deterministically, reconstructs one canonical
//! [`RunTrace`] per instance (crash rounds for killed nodes are
//! derived from the survivors' received rows), and audits it.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ssp_algos::{A1Msg, A1};
use ssp_lab::{audit_instance, InstanceAudit, ValidityMode};
use ssp_model::{ConsensusOutcome, InitialConfig, ProcessId, ProcessOutcome, Round, TaggedRunLog};
use ssp_rounds::{RoundAlgorithm, RoundModel, RoundProcess};
use ssp_runtime::{
    Collected, DegradeMode, FdModule, GatewayListener, GatewayStats, NetStats, RoundCore, RoundIo,
    RoundObs, RunTrace, SocketConfig, SocketFaults, SocketNet, SynchronyMonitor, SynchronyReport,
    ThreadedOutcome, TimeoutFd, TransportStats, Wire,
};

use crate::command::{
    decode_external_ops, put_op, take, take_op, Batch, Command, CommandId, KvStore, EXTERNAL_BIT,
};
use crate::proposer::Proposer;
use crate::stats::EngineStats;
use crate::workload::{Workload, WorkloadConfig};

/// Configuration of one cluster node (one OS process).
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's process index.
    pub me: usize,
    /// Cluster size.
    pub n: usize,
    /// Address to listen on.
    pub listen: String,
    /// Peer addresses, indexed by process (entry `me` ignored).
    pub peers: Vec<String>,
    /// Cluster seed: workload, proposals and backoff jitter derive
    /// from it — identically on every node.
    pub seed: u64,
    /// Number of consensus instances to serve.
    pub instances: u64,
    /// Largest per-process proposal prefix.
    pub batch_max: usize,
    /// Logical clients in the replicated workload.
    pub clients: usize,
    /// Incarnation number for the epoch handshake.
    pub epoch: u64,
    /// Heartbeat interval.
    pub heartbeat: Duration,
    /// PFD timeout: silence longer than this is the *only* thing that
    /// makes a peer suspect.
    pub fd_timeout: Duration,
    /// Claimed one-way bound Δ for the online guard (`None` = guard
    /// disarmed).
    pub delta: Option<Duration>,
    /// What a measured Δ violation does to the run.
    pub degrade: DegradeMode,
    /// `RS` drain: how long a sender must have been *suspected* before
    /// a round closes without its wire. Anchored at the suspicion (the
    /// sender silent for `fd_timeout + drain`), not at the round, so it
    /// is paid once per silence rather than once per round.
    pub drain: Duration,
    /// Per-round give-up deadline (liveness backstop).
    pub round_timeout: Duration,
    /// Pause between consecutive instances. Zero for full speed; a
    /// scripted `kill -9` needs a non-zero gap so the parent's report
    /// poll can land the signal mid-run instead of racing a cluster
    /// that finishes in milliseconds.
    pub instance_gap: Duration,
    /// Seeded faults on this node's outgoing data frames (`None` = a
    /// clean wire).
    pub faults: Option<SocketFaults>,
}

impl NodeConfig {
    /// Loopback-friendly defaults around a 2 s PFD timeout.
    #[must_use]
    pub fn new(me: usize, n: usize, listen: String, peers: Vec<String>, seed: u64) -> Self {
        NodeConfig {
            me,
            n,
            listen,
            peers,
            seed,
            instances: 8,
            batch_max: 4,
            clients: 8,
            epoch: 1,
            heartbeat: Duration::from_millis(25),
            fd_timeout: Duration::from_millis(2000),
            delta: None,
            degrade: DegradeMode::Off,
            drain: Duration::from_millis(150),
            round_timeout: Duration::from_secs(10),
            instance_gap: Duration::ZERO,
            faults: None,
        }
    }
}

/// Client-facing gateway knobs of one cluster node. The node admits
/// external submissions only while it is the *accepting* node — the
/// lowest index its own failure detector does not suspect, which is
/// exactly `A1`'s effective proposer, so admitted commands ride
/// proposals that can actually win their instance.
#[derive(Debug, Clone)]
pub struct GatewayNodeConfig {
    /// Client-facing listen address.
    pub listen: String,
    /// Bounded admission queue: submissions beyond this get a typed
    /// `Busy` rejection instead of unbounded buffering.
    pub queue_cap: usize,
}

/// Backpressure hint carried in a gateway node's `Busy` rejections.
const GATEWAY_RETRY_AFTER: Duration = Duration::from_millis(25);

/// Largest external tail a gateway node appends to its proposal per
/// instance.
const GATEWAY_TAIL_MAX: usize = 8;

impl GatewayNodeConfig {
    /// Conventional gateway knobs on `listen`.
    #[must_use]
    pub fn new(listen: impl Into<String>) -> Self {
        GatewayNodeConfig {
            listen: listen.into(),
            queue_cap: 64,
        }
    }
}

// ---------------------------------------------------------------------------
// Wire/report codec for `Option<A1Msg<Batch>>`
// ---------------------------------------------------------------------------

/// Batch framing around the shared command codec: `u32 count`, then
/// per command `u32 client ‖ u32 seq ‖ op`, all little-endian.
fn put_batch(out: &mut Vec<u8>, batch: &Batch) {
    let count = u32::try_from(batch.len()).expect("batch fits u32");
    out.extend_from_slice(&count.to_le_bytes());
    for cmd in batch.iter() {
        out.extend_from_slice(&cmd.id.client.to_le_bytes());
        out.extend_from_slice(&cmd.id.seq.to_le_bytes());
        put_op(out, &cmd.op);
    }
}

fn take_batch(buf: &mut &[u8]) -> Option<Batch> {
    let count = u32::from_le_bytes(take(buf)?);
    let mut cmds = Vec::with_capacity(count.min(4096) as usize);
    for _ in 0..count {
        let client = u32::from_le_bytes(take(buf)?);
        let seq = u32::from_le_bytes(take(buf)?);
        cmds.push(Command {
            id: CommandId { client, seq },
            op: take_op(buf)?,
        });
    }
    Some(Batch(cmds))
}

/// Encodes one wire payload — the `Option<Msg>` of a round cell, with
/// the explicit null wire (`None`) as its own tag.
#[must_use]
pub fn encode_wire(payload: &Option<A1Msg<Batch>>) -> Vec<u8> {
    let mut out = Vec::new();
    match payload {
        None => out.push(0),
        Some(A1Msg::Val(b)) => {
            out.push(1);
            put_batch(&mut out, b);
        }
        Some(A1Msg::Relay(b)) => {
            out.push(2);
            put_batch(&mut out, b);
        }
    }
    out
}

/// Decodes a wire payload; `None` means the bytes are corrupt (a
/// decoded null wire is `Some(None)`).
#[must_use]
pub fn decode_wire(bytes: &[u8]) -> Option<Option<A1Msg<Batch>>> {
    let mut buf = bytes;
    let (&tag, rest) = buf.split_first()?;
    buf = rest;
    let msg = match tag {
        0 => None,
        1 => Some(A1Msg::Val(take_batch(&mut buf)?)),
        2 => Some(A1Msg::Relay(take_batch(&mut buf)?)),
        _ => return None,
    };
    if buf.is_empty() {
        Some(msg)
    } else {
        None
    }
}

fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

/// A batch as it appears in `X` and `D` report lines.
fn hex_batch(batch: &Batch) -> String {
    let mut bytes = Vec::new();
    put_batch(&mut bytes, batch);
    to_hex(&bytes)
}

/// Parses a [`hex_batch`] field; bytes after the batch are ignored.
fn unhex_batch(hex: &str) -> Option<Batch> {
    take_batch(&mut from_hex(hex)?.as_slice())
}

/// An `S` or `R` report row: per cell `-` or the hex-encoded wire.
fn row(cells: &[Option<Option<A1Msg<Batch>>>]) -> String {
    let cells: Vec<String> = cells
        .iter()
        .map(|cell| {
            cell.as_ref()
                .map_or_else(|| "-".to_string(), |w| to_hex(&encode_wire(w)))
        })
        .collect();
    cells.join(" ")
}

// ---------------------------------------------------------------------------
// Node side
// ---------------------------------------------------------------------------

/// Runs one cluster node to completion, appending its report lines to
/// `out` (each line flushed as soon as it is complete, so a `kill -9`
/// leaves a consistent prefix for the parent to reconstruct from).
///
/// Report line grammar (`k` = instance, `r` = round, cells are `-` or
/// hex-encoded wire payloads):
///
/// ```text
/// X k hexbatch           external tail this node appended to its own
///                        proposal of instance k (gateway runs only)
/// S k r c0 .. c(n-1)     sent row (recorded before the wires leave)
/// R k r c0 .. c(n-1)     received row at round close
/// G k r                  round r never closed (give-up; node halts)
/// A k                    instance k aborted by the synchrony guard
/// D k r hexbatch         decision of instance k, made in round r
/// Y k d v a p            instance summary: degraded round (or -),
///                        violated 0/1, aborted 0/1, pending count
/// L k r src              guard armed: a wire of instance k, round r,
///                        from src arrived after instance k's summary
///                        (the merge flags instance k in hindsight)
/// T r rt b d du l s c    final transport counters
/// W ad de bu re          gateway counters: admitted, deduped,
///                        busy-rejected, redirects (gateway runs only;
///                        re-written each instance, last line wins, so
///                        a kill -9 keeps the victim's counts up to
///                        its last flushed instance)
/// K digest applied       final KV digest and applied-op count
/// ```
///
/// # Errors
///
/// Propagates socket-spawn and report-write failures.
pub fn serve_node(cfg: &NodeConfig, out: &mut dyn Write) -> io::Result<()> {
    serve_node_with(cfg, None, out)
}

/// [`serve_node`] with an optional client-facing gateway attached:
/// the node accepts external submissions over a [`GatewayListener`],
/// dedups them by `(client, req)` against the proposer's decided-id
/// ledger (a resubmission of an already-decided command re-acks with
/// the original `(instance, round)` instead of applying twice), rides
/// admitted commands as a tail on its own proposal — recorded as an
/// `X` report line so the parent merge can reconstruct the proposal —
/// and acks each decided command back to the client's latest session.
///
/// Submissions wait in the listener's queue until the next instance
/// boundary, where each is re-acked (already decided), redirected
/// toward another accepting node, or admitted: a node stuck on a
/// crashed peer holds them instead of bouncing clients to the dead node.
///
/// # Errors
///
/// Propagates socket/gateway-spawn and report-write failures.
#[allow(clippy::too_many_lines, clippy::missing_panics_doc)]
pub fn serve_node_with(
    cfg: &NodeConfig,
    gateway: Option<&GatewayNodeConfig>,
    out: &mut dyn Write,
) -> io::Result<()> {
    let me = ProcessId::new(cfg.me);
    let n = cfg.n;
    let net = SocketNet::spawn(SocketConfig {
        me,
        n,
        listen: cfg.listen.clone(),
        peers: cfg.peers.clone(),
        epoch: cfg.epoch,
        seed: cfg.seed,
        heartbeat: cfg.heartbeat,
        delta: cfg.delta,
        degrade: cfg.degrade,
        faults: cfg.faults,
    })?;
    let fd = TimeoutFd::new(net.board(), cfg.fd_timeout, me);
    let horizon = RoundAlgorithm::<Batch>::round_horizon(&A1, n, 1);
    let mut workload = Workload::new(cfg.seed, WorkloadConfig::new(cfg.clients));
    let mut proposer = Proposer::new();
    let mut kv = KvStore::default();
    // Early arrivals from instances we have not reached yet.
    let mut later: Vec<LaterWire> = Vec::new();
    let listener = match gateway {
        Some(gw) => Some(GatewayListener::spawn(
            &gw.listen,
            gw.queue_cap,
            GATEWAY_RETRY_AFTER,
        )?),
        None => None,
    };
    let mut gw_admitted = 0u64;
    let mut gw_deduped = 0u64;

    'instances: for k in 0..cfg.instances {
        if k > 0 && !cfg.instance_gap.is_zero() {
            std::thread::sleep(cfg.instance_gap);
        }
        for cmd in workload.poll() {
            proposer.submit(cmd);
        }

        // Gateway admission for this instance, the only place a held
        // submission is answered. The accepting node is the lowest
        // index the local PFD does not suspect — exactly A1's
        // effective proposer, so admitted commands decide in the
        // failure-free single round. Everyone else redirects.
        let mut gw_tail = Batch::default();
        if let (Some(listener), Some(gw)) = (&listener, gateway) {
            let accepting_node = (0..n)
                .find(|&q| fd.suspected_for(ProcessId::new(q)).is_none())
                .unwrap_or(cfg.me);
            for sub in listener.drain(gw.queue_cap) {
                if sub.client >= u64::from(EXTERNAL_BIT) || u32::try_from(sub.req).is_err() {
                    continue; // identity outside the wire bounds
                }
                let id = CommandId::external(sub.client, sub.req);
                if let Some((at, round)) = proposer.decided_at(id) {
                    // Resubmission of something already decided:
                    // re-ack with the original coordinates.
                    gw_deduped += 1;
                    listener.ack(sub.client, sub.req, at, round);
                    continue;
                }
                if accepting_node != cfg.me {
                    listener.redirect(sub.client, sub.req, accepting_node as u32);
                    continue;
                }
                let Some(ops) = decode_external_ops(&sub.payload) else {
                    continue; // malformed payload
                };
                let [op] = ops[..] else {
                    continue; // the cluster is one consensus group
                };
                if proposer.submit_external(Command { id, op }) {
                    gw_admitted += 1;
                } else {
                    gw_deduped += 1;
                }
            }
            gw_tail = Batch(proposer.external_tail(GATEWAY_TAIL_MAX));
            if !gw_tail.0.is_empty() {
                writeln!(out, "X {k} {}", hex_batch(&gw_tail))?;
                out.flush()?;
            }
        }

        let mut proposals = proposer.proposals(n, cfg.batch_max, k);
        proposals[cfg.me].0.extend(gw_tail.0.iter().copied());
        let mut core = RoundCore::new(A1.spawn(me, n, 1, proposals[cfg.me].clone()), me, n);
        let (early, rest): (Vec<_>, Vec<_>) = later.drain(..).partition(|w| w.0 == k);
        later = rest;
        for (_, r, src, payload) in early {
            core.deliver(src, r, payload);
        }
        let monitor = net.begin_instance(k);
        // Wires of earlier instances: pending here, but not in the core.
        let mut stale = 0u64;
        let mut decided_written = false;
        // Aborted or gave up: the batch stays pending, and the node stops.
        let mut halted = false;

        for r in 1..=horizon {
            // --- send phase (explicit null wires, self kept local) ---
            let sent = core.open(|_| true);
            for (q, wire) in sent.iter().enumerate().filter(|&(q, _)| q != cfg.me) {
                let wire = wire.as_ref().expect("a node emits every wire");
                net.send(ProcessId::new(q), k, Round::new(r), encode_wire(wire));
            }
            writeln!(out, "S {k} {r} {}", row(sent))?;
            out.flush()?;

            // --- collect phase ---
            let mut io = NodeIo {
                net: &net,
                fd: &fd,
                monitor: &monitor,
                k,
                later: &mut later,
                earlier: Vec::new(),
                deadline: Instant::now() + cfg.round_timeout,
            };
            let collected = core.collect(&mut io, &monitor, cfg.drain);
            for (i, r, src) in io.earlier {
                // Its instance is already summarised: leave the guard's
                // finding for the merge to flag it.
                stale += 1;
                if monitor.is_armed() {
                    writeln!(out, "L {i} {r} {}", src.index())?;
                }
            }
            let halt = match collected {
                Collected::Ready => None,
                Collected::Aborted => Some(format!("A {k}")),
                Collected::GaveUp => Some(format!("G {k} {r}")),
            };
            if let Some(line) = halt {
                writeln!(out, "{line}")?;
                out.flush()?;
                halted = true;
                break;
            }
            let received = core.close().received.expect("a closed round has a row");
            writeln!(out, "R {k} {r} {}", row(&received))?;
            out.flush()?;
            if !decided_written {
                if let Some((batch, round)) = core.process().decision() {
                    writeln!(out, "D {k} {} {}", round.get(), hex_batch(&batch))?;
                    out.flush()?;
                    decided_written = true;
                }
            }
        }

        // Commit whatever this instance decided.
        if !halted {
            if let Some((batch, round)) = core.process().decision() {
                let committed = proposer
                    .commit(&batch, k, round.get())
                    .map_err(|e| io::Error::other(format!("instance {k}: {e}")))?;
                for cmd in &committed {
                    kv.apply(&cmd.op);
                    if cmd.id.is_external() {
                        if let Some(listener) = &listener {
                            listener.ack(
                                u64::from(cmd.id.client & !EXTERNAL_BIT),
                                u64::from(cmd.id.seq),
                                k,
                                round.get(),
                            );
                        }
                    } else {
                        workload.acknowledge(cmd.id);
                    }
                }
            }
        }
        let report = monitor.report();
        writeln!(
            out,
            "Y {k} {} {} {} {}",
            report
                .degraded_at
                .map_or_else(|| "-".to_string(), |r| r.get().to_string()),
            u8::from(report.violated),
            u8::from(report.aborted),
            core.pending() + stale,
        )?;
        // Gateway counters are re-written every instance (parse keeps
        // the last line) so a `kill -9` loses at most the counts of the
        // instance in flight, not the whole node's ledger view.
        if let Some(listener) = &listener {
            write_gateway_line(out, listener, gw_admitted, gw_deduped)?;
        }
        out.flush()?;
        if halted {
            // Continuing with a state that diverged from the peers
            // (uncommitted batch) would poison every later instance.
            break 'instances;
        }
    }
    let t = net.stats();
    writeln!(
        out,
        "T {} {} {} {} {} {} {} {}",
        t.reconnects,
        t.retransmits,
        t.backoff_micros,
        t.delivered,
        t.dup_suppressed,
        t.late_frames,
        t.stale_epoch_drops,
        t.corrupt_drops,
    )?;
    if let Some(listener) = listener {
        write_gateway_line(out, &listener, gw_admitted, gw_deduped)?;
        listener.shutdown();
    }
    writeln!(out, "K {} {}", kv.digest(), kv.applied())?;
    out.flush()?;
    net.shutdown();
    Ok(())
}

/// A wire of a later instance: `(instance, round, sender, payload)`.
type LaterWire = (u64, u32, ProcessId, Option<A1Msg<Batch>>);

/// The node's side of [`RoundCore::collect`] for one round of instance
/// `k`: the socket transport, the PFD and remote aborts.
struct NodeIo<'a> {
    net: &'a SocketNet,
    fd: &'a TimeoutFd,
    monitor: &'a SynchronyMonitor,
    k: u64,
    /// Wires of later instances, held for their own cores.
    later: &'a mut Vec<LaterWire>,
    /// `(instance, round, sender)` of wires of earlier instances.
    earlier: Vec<(u64, u32, ProcessId)>,
    deadline: Instant,
}

impl RoundIo<A1Msg<Batch>> for NodeIo<'_> {
    fn aborted(&mut self) -> bool {
        let aborted =
            self.monitor.aborted() || self.net.remote_abort().is_some_and(|ab| ab <= self.k);
        if aborted {
            self.net.abort(self.k);
        }
        aborted
    }

    fn suspected_for(&mut self, q: ProcessId) -> Option<Duration> {
        self.fd.suspected_for(q)
    }

    fn expired(&mut self) -> bool {
        Instant::now() > self.deadline
    }

    fn recv(&mut self) -> Option<Wire<A1Msg<Batch>>> {
        let msg = self.net.recv_timeout(Duration::from_millis(2)).ok()?;
        let payload = decode_wire(&msg.payload)?;
        let round = msg.round.get();
        if msg.instance > self.k {
            self.later.push((msg.instance, round, msg.src, payload));
        } else if msg.instance < self.k {
            self.earlier.push((msg.instance, round, msg.src));
        } else {
            return Some((msg.src, round, payload));
        }
        None
    }
}

/// Writes the `W` report line: the node's own admission counters plus
/// the listener's busy and redirect counts.
fn write_gateway_line(
    out: &mut dyn Write,
    listener: &GatewayListener,
    admitted: u64,
    deduped: u64,
) -> io::Result<()> {
    let stats = listener.stats();
    writeln!(
        out,
        "W {admitted} {deduped} {} {}",
        stats.busy_rejected, stats.redirects
    )
}

// ---------------------------------------------------------------------------
// Parent side: report parsing and merge
// ---------------------------------------------------------------------------

/// One instance's summary line.
#[derive(Debug, Clone, Copy, Default)]
struct Summary {
    degraded: Option<u32>,
    violated: bool,
    aborted: bool,
    pending: u64,
}

/// Everything parsed from one node's report file.
#[derive(Debug, Default)]
struct NodeLog {
    /// `(instance, round)` → per-destination sent cells (raw payload
    /// bytes; `None` = no wire recorded).
    sent: BTreeMap<(u64, u32), Vec<Option<Vec<u8>>>>,
    /// `(instance, round)` → per-sender received cells at close.
    recv: BTreeMap<(u64, u32), Vec<Option<Vec<u8>>>>,
    decided: BTreeMap<u64, (u32, Batch)>,
    summary: BTreeMap<u64, Summary>,
    /// Instances with a wire that arrived after their summary while
    /// the guard was armed (`L` lines).
    late: BTreeSet<u64>,
    aborted: BTreeSet<u64>,
    gave_up: BTreeMap<u64, u32>,
    transport: TransportStats,
    digest: Option<(u64, u64)>,
    /// `instance` → external tail the node appended to its own
    /// proposal (gateway runs only).
    ext: BTreeMap<u64, Batch>,
    gateway: Option<GatewayStats>,
}

fn parse_cells(parts: &[&str], n: usize) -> Option<Vec<Option<Vec<u8>>>> {
    if parts.len() != n {
        return None;
    }
    parts
        .iter()
        .map(|p| {
            if *p == "-" {
                Some(None)
            } else {
                from_hex(p).map(Some)
            }
        })
        .collect()
}

/// Parses one node report; unknown or truncated lines are skipped (a
/// `kill -9` can cut the final line short).
fn parse_node_report(text: &str, n: usize) -> NodeLog {
    let mut log = NodeLog::default();
    for line in text.lines() {
        let parts: Vec<&str> = line.split_whitespace().collect();
        let tag = parts.first().copied().unwrap_or("");
        let num = |i: usize| parts.get(i).and_then(|s| s.parse::<u64>().ok());
        match tag {
            "S" | "R" => {
                let (Some(k), Some(r)) = (num(1), num(2)) else {
                    continue;
                };
                let Some(cells) = parse_cells(&parts[3..], n) else {
                    continue;
                };
                #[allow(clippy::cast_possible_truncation)]
                let key = (k, r as u32);
                if tag == "S" {
                    log.sent.insert(key, cells);
                } else {
                    log.recv.insert(key, cells);
                }
            }
            "G" => {
                if let (Some(k), Some(r)) = (num(1), num(2)) {
                    #[allow(clippy::cast_possible_truncation)]
                    log.gave_up.insert(k, r as u32);
                }
            }
            "A" => {
                if let Some(k) = num(1) {
                    log.aborted.insert(k);
                }
            }
            "L" => {
                if let Some(k) = num(1) {
                    log.late.insert(k);
                }
            }
            "D" => {
                let batch = parts.get(3).and_then(|hex| unhex_batch(hex));
                let (Some(k), Some(r), Some(batch)) = (num(1), num(2), batch) else {
                    continue;
                };
                #[allow(clippy::cast_possible_truncation)]
                log.decided.insert(k, (r as u32, batch));
            }
            "Y" => {
                let Some(k) = num(1) else { continue };
                let degraded = parts.get(2).and_then(|s| s.parse::<u32>().ok());
                let (Some(v), Some(a), Some(p)) = (num(3), num(4), num(5)) else {
                    continue;
                };
                log.summary.insert(
                    k,
                    Summary {
                        degraded,
                        violated: v != 0,
                        aborted: a != 0,
                        pending: p,
                    },
                );
            }
            "T" => {
                let vals: Vec<u64> = (1..=8).filter_map(num).collect();
                if let [rc, rt, bo, de, du, la, st, co] = vals[..] {
                    log.transport = TransportStats {
                        reconnects: rc,
                        retransmits: rt,
                        backoff_micros: bo,
                        delivered: de,
                        dup_suppressed: du,
                        late_frames: la,
                        stale_epoch_drops: st,
                        corrupt_drops: co,
                    };
                }
            }
            "X" => {
                let batch = parts.get(2).and_then(|hex| unhex_batch(hex));
                let (Some(k), Some(batch)) = (num(1), batch) else {
                    continue;
                };
                log.ext.insert(k, batch);
            }
            "W" => {
                let vals: Vec<u64> = (1..=4).filter_map(num).collect();
                if let [ad, de, bu, re] = vals[..] {
                    log.gateway = Some(GatewayStats {
                        admitted: ad,
                        deduped: de,
                        busy_rejected: bu,
                        redirects: re,
                    });
                }
            }
            "K" => {
                if let (Some(d), Some(a)) = (num(1), num(2)) {
                    log.digest = Some((d, a));
                }
            }
            _ => {}
        }
    }
    log
}

fn decode_cells(cells: &[Option<Vec<u8>>]) -> Vec<Option<Option<A1Msg<Batch>>>> {
    cells
        .iter()
        .map(|c| c.as_ref().and_then(|bytes| decode_wire(bytes)))
        .collect()
}

/// The merged, certified result of a cluster run.
#[derive(Debug)]
pub struct ClusterReport {
    /// Engine-style statistics (transport section populated with the
    /// summed per-node counters).
    pub stats: EngineStats,
    /// Per-instance audits, instance order.
    pub audits: Vec<InstanceAudit>,
    /// Per-instance canonical run logs, instance order.
    pub logs: Vec<TaggedRunLog<A1Msg<Batch>>>,
    /// The replicated store as replayed by the parent.
    pub kv: KvStore,
    /// Nodes whose reports show them crashing mid-run (the `kill -9`
    /// victims), with the first instance they are crashed in.
    pub crashed_nodes: Vec<(usize, u64)>,
    /// Per-node final KV digests, for cross-replica agreement checks
    /// (`None` for nodes that died before reporting one).
    pub node_digests: Vec<Option<u64>>,
}

/// Merges the node report files of one cluster run into certified
/// per-instance outcomes.
///
/// `reports[i]` is node `i`'s report text. The merge replays the
/// deterministic workload/proposer, reconstructs each instance's
/// [`RunTrace`] (killed nodes get crash rounds derived from their last
/// written rows, with crash-round sends reconstructed from the
/// survivors' received cells — ground truth for what actually left the
/// dying process), and runs every instance through
/// [`audit_instance`].
///
/// # Errors
///
/// Fails when nodes disagree on a decided batch or a decided batch
/// cannot be committed exactly once — both uniform-agreement breaches
/// that should never survive a correct transport.
#[allow(clippy::too_many_lines, clippy::missing_panics_doc)]
pub fn merge_reports(cfg: &NodeConfig, reports: &[String]) -> io::Result<ClusterReport> {
    let n = cfg.n;
    assert_eq!(reports.len(), n, "one report per node");
    let nodes: Vec<NodeLog> = reports.iter().map(|r| parse_node_report(r, n)).collect();
    let horizon = RoundAlgorithm::<Batch>::round_horizon(&A1, n, 1);

    let mut workload = Workload::new(cfg.seed, WorkloadConfig::new(cfg.clients));
    let mut proposer = Proposer::new();
    let mut kv = KvStore::default();
    let mut stats = EngineStats {
        algo: "A1".to_string(),
        model: "rs".to_string(),
        n,
        t: 1,
        seed: cfg.seed,
        ..EngineStats::default()
    };
    let mut audits = Vec::new();
    let mut logs = Vec::new();
    let mut crashed_nodes: Vec<(usize, u64)> = Vec::new();

    // A node is "live at k" if it wrote a summary for instance k; the
    // cluster executed instance k if anyone did.
    for k in 0..cfg.instances {
        if !nodes.iter().any(|nl| nl.summary.contains_key(&k)) {
            break;
        }
        for cmd in workload.poll() {
            proposer.submit(cmd);
        }
        let mut proposals = proposer.proposals(n, cfg.batch_max, k);
        // Re-append each node's reported external tail to its own
        // proposal, so the validity audit sees what was actually
        // proposed (gateway runs only; the map is empty otherwise).
        for (i, nl) in nodes.iter().enumerate() {
            if let Some(tail) = nl.ext.get(&k) {
                proposals[i].0.extend(tail.0.iter().copied());
            }
        }

        // Agreement across every node that decided this instance.
        let mut decision: Option<(u32, Batch)> = None;
        for (i, nl) in nodes.iter().enumerate() {
            if let Some((r, batch)) = nl.decided.get(&k) {
                match &decision {
                    None => decision = Some((*r, batch.clone())),
                    Some((_, prior)) if prior == batch => {}
                    Some(_) => {
                        return Err(io::Error::other(format!(
                            "instance {k}: node {i} decided a different batch"
                        )));
                    }
                }
            }
        }

        let mut trace_logs: Vec<Vec<RoundObs<A1Msg<Batch>>>> = Vec::with_capacity(n);
        let mut crashes: Vec<Option<Round>> = vec![None; n];
        let mut outcomes: Vec<ProcessOutcome<Batch>> = Vec::with_capacity(n);
        let aborted = nodes
            .iter()
            .any(|nl| nl.summary.get(&k).is_some_and(|s| s.aborted) || nl.aborted.contains(&k));

        for (i, nl) in nodes.iter().enumerate() {
            let mut log: Vec<RoundObs<A1Msg<Batch>>> = Vec::new();
            // A node that finished the instance (possibly by abort or
            // give-up) has authoritative rows, a final sent-only row
            // included. A node that died mid-run (killed) has its
            // completed rounds in its file; its crash round's sends
            // are whatever the survivors actually received from it.
            let finished = nl.summary.contains_key(&k) || nl.gave_up.contains_key(&k);
            let mut completed = 0u32;
            for r in 1..=horizon {
                let Some(s) = nl.sent.get(&(k, r)) else { break };
                let received = nl.recv.get(&(k, r)).map(|g| decode_cells(g));
                if received.is_none() && !finished {
                    break;
                }
                let closed = received.is_some();
                log.push(RoundObs {
                    sent: decode_cells(s),
                    received,
                });
                if !closed {
                    break; // sent but never closed: abort or give-up
                }
                completed = r;
            }
            if !finished {
                let crash_round = completed + 1;
                if crash_round <= horizon {
                    let sent = nodes
                        .iter()
                        .enumerate()
                        .map(|(q, peer)| {
                            let row = peer.recv.get(&(k, crash_round)).filter(|_| q != i);
                            row.and_then(|row| row[i].as_deref()).and_then(decode_wire)
                        })
                        .collect();
                    log.push(RoundObs {
                        sent,
                        received: None,
                    });
                }
                crashes[i] = Some(Round::new(crash_round.min(horizon + 1)));
                if !crashed_nodes.iter().any(|&(p, _)| p == i) {
                    crashed_nodes.push((i, k));
                }
            }
            outcomes.push(ProcessOutcome {
                input: proposals[i].clone(),
                decision: nl
                    .decided
                    .get(&k)
                    .map(|(r, batch)| (batch.clone(), Round::new(*r))),
                crashed_in: crashes[i],
            });
            trace_logs.push(log);
        }

        let degraded_at = nodes
            .iter()
            .filter_map(|nl| nl.summary.get(&k).and_then(|s| s.degraded))
            .min()
            .map(Round::new);
        let violated = nodes
            .iter()
            .any(|nl| nl.summary.get(&k).is_some_and(|s| s.violated) || nl.late.contains(&k));
        let pending_messages: u64 = nodes
            .iter()
            .filter_map(|nl| nl.summary.get(&k).map(|s| s.pending))
            .sum();

        let trace = RunTrace {
            n,
            horizon,
            model: RoundModel::Rs,
            logs: trace_logs,
            crashes: crashes.clone(),
            retired: vec![None; n],
            degraded_at,
            aborted,
        };
        let outcome = ThreadedOutcome {
            outcome: ConsensusOutcome::new(outcomes),
            pending_messages,
            elapsed: Duration::ZERO,
            trace,
            synchrony: SynchronyReport {
                events: Vec::new(),
                violated,
                degraded_at,
                aborted,
            },
            net: NetStats::default(),
        };
        let config = InitialConfig::new(proposals);
        audits.push(audit_instance(
            &A1,
            &config,
            1,
            &outcome,
            ValidityMode::Uniform,
            k,
        ));
        logs.push(TaggedRunLog {
            instance: k,
            log: outcome.trace.run_log(),
        });

        match decision {
            Some((r, batch)) => {
                let committed = proposer
                    .commit(&batch, k, r)
                    .map_err(|e| io::Error::other(format!("instance {k}: {e}")))?;
                for cmd in &committed {
                    kv.apply(&cmd.op);
                    if !cmd.id.is_external() {
                        workload.acknowledge(cmd.id);
                    }
                }
                stats.decided_instances += 1;
                stats.commands_decided += committed.len() as u64;
                if let Some(rounds) = outcome.outcome.latency_degree() {
                    stats.decide_rounds.push(rounds);
                }
            }
            None => stats.undecided_instances += 1,
        }
        if crashes.iter().any(Option::is_some) {
            stats.crashed_instances += 1;
        }
        if degraded_at.is_some() {
            stats.degraded_instances += 1;
        }
        stats.instances += 1;
    }

    stats.commands_submitted = workload.submitted();
    stats.pending_at_shutdown = proposer.pending_len() as u64;
    stats.reproposed = proposer.reproposed();
    stats.kv_digest = kv.digest();
    stats.audit_checked = audits.len() as u64;
    stats.audit_violations = audits.iter().filter(|a| a.violation.is_some()).count() as u64;
    stats.audit_divergences = audits.iter().filter(|a| a.divergence.is_some()).count() as u64;
    stats.transport = Some(nodes.iter().fold(TransportStats::default(), |acc, nl| {
        let t = nl.transport;
        TransportStats {
            reconnects: acc.reconnects + t.reconnects,
            retransmits: acc.retransmits + t.retransmits,
            backoff_micros: acc.backoff_micros + t.backoff_micros,
            delivered: acc.delivered + t.delivered,
            dup_suppressed: acc.dup_suppressed + t.dup_suppressed,
            late_frames: acc.late_frames + t.late_frames,
            stale_epoch_drops: acc.stale_epoch_drops + t.stale_epoch_drops,
            corrupt_drops: acc.corrupt_drops + t.corrupt_drops,
        }
    }));
    stats.gateway = nodes
        .iter()
        .filter_map(|nl| nl.gateway)
        .reduce(GatewayStats::merged);

    // Cross-replica agreement: every surviving node's replayed store
    // must equal the parent's replay.
    let node_digests: Vec<Option<u64>> = nodes.iter().map(|nl| nl.digest.map(|d| d.0)).collect();
    for (i, digest) in node_digests.iter().enumerate() {
        if let Some(d) = digest {
            // A node that halted early (abort/give-up) legitimately
            // stops behind the parent's replay; equality is asserted
            // only for nodes that served every merged instance.
            let served_all = nodes[i].summary.len() as u64 == stats.instances
                && nodes[i].aborted.is_empty()
                && nodes[i].gave_up.is_empty();
            if served_all && *d != stats.kv_digest {
                return Err(io::Error::other(format!(
                    "node {i}: KV digest {d:#x} disagrees with the merged replay {:#x}",
                    stats.kv_digest
                )));
            }
        }
    }

    Ok(ClusterReport {
        stats,
        audits,
        logs,
        kv,
        crashed_nodes,
        node_digests,
    })
}

// ---------------------------------------------------------------------------
// Parent side: process orchestration
// ---------------------------------------------------------------------------

/// Scripted `kill -9` of one node, triggered once its report shows
/// instance `after_instance` complete.
#[derive(Debug, Clone, Copy)]
pub struct KillSpec {
    /// The victim node.
    pub node: usize,
    /// The last instance the victim is allowed to finish.
    pub after_instance: u64,
}

/// Client-facing gateway for a whole cluster: node `i` listens for
/// external submissions on `127.0.0.1:(base_port + i)` — deterministic
/// addresses, so load generators and scripts can compute them without
/// any discovery step.
#[derive(Debug, Clone, Copy)]
pub struct GatewaySpec {
    /// Gateway port of node 0; node `i` uses `base_port + i`.
    pub base_port: u16,
    /// Per-node bounded admission queue (`Busy` beyond it).
    pub queue_cap: usize,
}

/// Parent-side configuration of `ssp serve-cluster`.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Node template (timing, seed, sizes). `me`/`listen`/`peers` are
    /// filled in per node.
    pub node: NodeConfig,
    /// Optional mid-run `kill -9`.
    pub kill: Option<KillSpec>,
    /// Optional per-node client gateway.
    pub gateway: Option<GatewaySpec>,
}

/// `n` distinct free loopback addresses: every probe listener stays
/// bound until the set is complete, so no port is drawn twice.
fn free_loopback_addrs(n: usize) -> io::Result<Vec<String>> {
    let probes = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    probes
        .iter()
        .map(|l| Ok(l.local_addr()?.to_string()))
        .collect()
}

/// Spawns `n` node processes of `bin` (`ssp serve a1 rs --node i ...`),
/// each applying the template's socket faults to its own outgoing
/// links, optionally kills one node mid-run, then merges and audits
/// their reports.
///
/// # Errors
///
/// Propagates spawn/IO failures and merge-level agreement breaches.
#[allow(clippy::too_many_lines, clippy::missing_panics_doc)]
pub fn run_cluster(bin: &Path, cfg: &ClusterConfig, dir: &Path) -> io::Result<ClusterReport> {
    let n = cfg.node.n;
    std::fs::create_dir_all(dir)?;
    let addrs = free_loopback_addrs(n)?;

    let report_path = |i: usize| -> PathBuf { dir.join(format!("node{i}.log")) };
    let mut children = Vec::with_capacity(n);
    for i in 0..n {
        let mut cmd = std::process::Command::new(bin);
        cmd.arg("serve")
            .arg("a1")
            .arg("rs")
            .arg("--node")
            .arg(i.to_string())
            .arg("--listen")
            .arg(&addrs[i])
            .arg("--peers")
            .arg(addrs.join(","))
            .arg("--report")
            .arg(report_path(i))
            .arg("--instances")
            .arg(cfg.node.instances.to_string())
            .arg("--seed")
            .arg(cfg.node.seed.to_string())
            .arg("--batch")
            .arg(cfg.node.batch_max.to_string())
            .arg("--clients")
            .arg(cfg.node.clients.to_string())
            .arg("-n")
            .arg(n.to_string())
            .arg("--hb-ms")
            .arg(cfg.node.heartbeat.as_millis().to_string())
            .arg("--fd-timeout-ms")
            .arg(cfg.node.fd_timeout.as_millis().to_string())
            .arg("--drain")
            .arg(cfg.node.drain.as_millis().to_string())
            .arg("--round-timeout-ms")
            .arg(cfg.node.round_timeout.as_millis().to_string())
            .arg("--gap-ms")
            .arg(cfg.node.instance_gap.as_millis().to_string());
        if let Some(delta) = cfg.node.delta {
            cmd.arg("--delta-ms").arg(delta.as_millis().to_string());
            cmd.arg("--degrade").arg(match cfg.node.degrade {
                DegradeMode::Off => "off",
                DegradeMode::Rws => "rws",
                DegradeMode::Abort => "abort",
            });
        }
        if let Some(f) = &cfg.node.faults {
            cmd.arg("--proxy-seed").arg(f.seed.to_string());
            cmd.arg("--proxy-delay-ms")
                .arg(f.delay.as_millis().to_string());
            cmd.arg("--proxy-delay-rate").arg(per_mille(f.delay_pm));
            cmd.arg("--proxy-drop-rate").arg(per_mille(f.drop_pm));
            if let Some(k) = f.reset_after {
                cmd.arg("--proxy-reset-after").arg(k.to_string());
            }
        }
        if let Some(gw) = &cfg.gateway {
            #[allow(clippy::cast_possible_truncation)]
            let port = gw.base_port + i as u16;
            cmd.arg("--gateway-listen")
                .arg(format!("127.0.0.1:{port}"))
                .arg("--gateway-queue")
                .arg(gw.queue_cap.to_string());
        }
        children.push(cmd.spawn()?);
    }

    // Scripted kill: wait for the victim to finish its last allowed
    // instance, then SIGKILL — no shutdown handler runs, no FIN beyond
    // what the kernel sends for the dead sockets.
    if let Some(kill) = cfg.kill {
        let marker = format!("\nY {} ", kill.after_instance);
        let path = report_path(kill.node);
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            if text.contains(&marker) || text.starts_with(marker.trim_start_matches('\n')) {
                break;
            }
            if Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        children[kill.node].kill()?;
    }

    for child in &mut children {
        let _ = child.wait()?;
    }

    let reports: Vec<String> = (0..n)
        .map(|i| std::fs::read_to_string(report_path(i)).unwrap_or_default())
        .collect::<Vec<_>>();
    merge_reports(&cfg.node, &reports)
}

/// A per-mille rate as the probability a rate flag takes (`250` →
/// `0.25`).
fn per_mille(pm: u32) -> String {
    format!("{}", f64::from(pm) / 1000.0)
}

/// Convenience wrapper: run one node writing its report to `path`,
/// optionally with a client gateway attached.
///
/// # Errors
///
/// Propagates [`serve_node_with`] failures.
pub fn serve_node_to_file(
    cfg: &NodeConfig,
    gateway: Option<&GatewayNodeConfig>,
    path: &Path,
) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = BufWriter::new(file);
    serve_node_with(cfg, gateway, &mut out)?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{encode_external_ops, Op};

    fn cmd(client: u32, seq: u32, key: u32) -> Command {
        Command {
            id: CommandId { client, seq },
            op: Op::Put {
                key,
                value: u64::from(key) * 3,
            },
        }
    }

    #[test]
    fn wire_codec_roundtrips_every_variant() {
        let batch = Batch(vec![
            cmd(0, 1, 7),
            Command {
                id: CommandId { client: 2, seq: 9 },
                op: Op::Delete { key: 4 },
            },
        ]);
        for payload in [
            None,
            Some(A1Msg::Val(batch.clone())),
            Some(A1Msg::Relay(batch)),
            Some(A1Msg::Val(Batch::default())),
        ] {
            let bytes = encode_wire(&payload);
            assert_eq!(decode_wire(&bytes), Some(payload));
        }
    }

    #[test]
    fn an_op_encodes_alike_in_a_batch_and_in_an_external_payload() {
        for op in [
            Op::Put {
                key: 7,
                value: u64::MAX - 1,
            },
            Op::Delete { key: 0x0102_0304 },
        ] {
            let mut batch = Vec::new();
            let id = CommandId::external(5, 9);
            put_batch(&mut batch, &Batch(vec![Command { id, op }]));
            // Batch: u32 count, u32 client, u32 seq, op.
            // External payload: u8 count, op.
            assert_eq!(batch[12..], encode_external_ops(&[op])[1..], "{op:?}");
        }
    }

    #[test]
    fn wire_codec_rejects_corruption() {
        assert_eq!(decode_wire(&[]), None, "empty");
        assert_eq!(decode_wire(&[9]), None, "unknown tag");
        let mut bytes = encode_wire(&Some(A1Msg::Val(Batch(vec![cmd(0, 0, 1)]))));
        bytes.push(0);
        assert_eq!(decode_wire(&bytes), None, "trailing byte");
        bytes.pop();
        bytes.pop();
        assert_eq!(decode_wire(&bytes), None, "truncated");
    }

    #[test]
    fn hex_roundtrip_and_cells() {
        let bytes = vec![0u8, 1, 0xab, 0xff];
        assert_eq!(from_hex(&to_hex(&bytes)), Some(bytes));
        assert_eq!(from_hex("0g"), None);
        assert_eq!(from_hex("abc"), None);
        assert_eq!(row(&[None, Some(None)]), "- 00");
    }

    /// An in-process 3-node cluster over real loopback sockets: run
    /// every node on its own thread, then merge and audit.
    #[test]
    fn loopback_cluster_decides_and_audits_clean() {
        let addrs = free_loopback_addrs(3).unwrap();
        let mk = |i: usize| {
            let mut c = NodeConfig::new(i, 3, addrs[i].clone(), addrs.clone(), 42);
            c.instances = 3;
            c.clients = 4;
            // Far above parallel-test scheduling noise: in the
            // failure-free path rounds close on full rows, so the PFD
            // timeout never gates progress — it only needs to not
            // fire spuriously.
            c.fd_timeout = Duration::from_secs(10);
            c
        };
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let cfg = mk(i);
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    serve_node(&cfg, &mut out).unwrap();
                    String::from_utf8(out).unwrap()
                })
            })
            .collect();
        let reports: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let report = merge_reports(&mk(0), &reports).unwrap();
        assert_eq!(report.stats.instances, 3);
        assert_eq!(report.stats.decided_instances, 3);
        assert!(report.crashed_nodes.is_empty());
        for audit in &report.audits {
            assert!(audit.is_clean(), "instance {}: {audit:?}", audit.instance);
        }
        assert_eq!(
            report.stats.decide_rounds,
            vec![1; 3],
            "failure-free A1 over sockets still decides in round 1"
        );
        for d in &report.node_digests {
            assert_eq!(*d, Some(report.stats.kv_digest));
        }
        let t = report
            .stats
            .transport
            .expect("socket runs report transport");
        assert!(t.delivered > 0);
    }
}
