//! `gateway` and `failover`: a 3-node loopback cluster of
//! `ssp serve a1 rs --node` processes, each with a gateway, driven by two
//! closed-loop `GatewayClient`s in this process.
//!
//! `gateway` is failure-free: socket transport, the node's own round
//! loop, and gateway admission. `failover` sends warm-up acks through
//! node 0 (the accepting node and `A1`'s proposer), kill -9's node 0
//! itself between two instances while no request is outstanding, and
//! times a fixed count of requests the survivors serve: suspicion,
//! redirect, reconnect, resubmission and the round-2 degraded path.
//!
//! The nodes get no instance budget that could run out under load: the
//! benchmark stops them when the load ends, and audits, through the
//! public `merge_reports`, the prefix of instances every live node
//! completed. A run is several cycles of spawn, warm-up, timed phase,
//! stop and merge, so set-up time is a median. No client sends more
//! requests in a cycle than `load_op` has keys for it, so every acked
//! request is checked in the merged store.

use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ssp_engine::{merge_reports, NodeConfig, Op};
use ssp_gateway::{load_op, Ack, ClientConfig, ClientStats, GatewayClient};

use crate::trace::Tracer;
use crate::util::{
    cpu_of, mean, median, ms, peak_rss_mb, quantile, ratio, reset_peak_rss, splitmix, Cpu,
};
use crate::{Ctx, Outcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Gateway,
    Failover,
}

const NODES: usize = 3;
const CLIENTS: u64 = 2;
/// Timed cycles per run. `failover` adds set-up-only cycles (spawn,
/// warm-up, stop and merge, no kill) so that its set-up time, a median
/// over all cycles, has as many samples as `gateway`'s.
const GATEWAY_CYCLES: u64 = 10;
const FAILOVER_CYCLES: u64 = 3;
const FAILOVER_SETUP_ONLY_CYCLES: u64 = 7;
/// `gateway`'s timed phase is cut into windows of about this length; the
/// gated numbers are medians over windows, so a burst of host noise
/// moves a few windows, not the run. A `failover` cycle is one window.
const WINDOW: Duration = Duration::from_secs(1);
/// Requests per client sent through node 0 before the timed phase.
const WARM_UP_REQUESTS: u64 = 100;
/// Requests per client the survivors serve after the kill, per cycle.
const FAILOVER_REQUESTS: u64 = 6;
/// Larger than any run can use: the benchmark, not a budget, stops the
/// cluster.
const UNBOUNDED_INSTANCES: u64 = 1 << 40;
/// Wall caps that turn a stall into counted failures instead of a hang.
const READY_CAP: Duration = Duration::from_secs(20);
const FAILOVER_PHASE_CAP: Duration = Duration::from_secs(60);
const SETTLE_CAP: Duration = Duration::from_secs(10);
/// A stop lands between two instances about once in 300 tries, so the
/// search for a kill point takes about 0.5 s (up to 2 s seen); the cap
/// leaves a wide margin.
const KILL_CAP: Duration = Duration::from_secs(30);

/// Sleeps in small steps until `cond` holds or `cap` passes.
fn wait_until(cap: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + cap;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One node process and its report file.
struct Node {
    child: Option<Child>,
    pid: String,
    report: PathBuf,
}

/// The cluster's processes; dropping it kills and reaps every one.
struct Cluster {
    nodes: Vec<Node>,
    gateways: Vec<String>,
    dir: PathBuf,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for node in &mut self.nodes {
            kill(node);
        }
    }
}

fn kill(node: &mut Node) {
    if let Some(mut child) = node.child.take() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

fn free_ports(count: usize) -> std::io::Result<Vec<u16>> {
    let listeners: Vec<TcpListener> = (0..count)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()))
        .collect()
}

fn spawn(ssp: &Path, dir: &Path, seed: u64) -> std::io::Result<Cluster> {
    std::fs::create_dir_all(dir)?;
    let ports = free_ports(2 * NODES)?;
    let peers: Vec<String> = ports[..NODES]
        .iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect();
    let gateways: Vec<String> = ports[NODES..]
        .iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect();
    let mut cluster = Cluster {
        nodes: Vec::new(),
        gateways,
        dir: dir.to_path_buf(),
    };
    for i in 0..NODES {
        let report = dir.join(format!("node{i}.report"));
        let child = Command::new(ssp)
            .args(["serve", "a1", "rs", "--node", &i.to_string()])
            .args(["--listen", &peers[i], "--peers", &peers.join(",")])
            .args(["--gateway-listen", &cluster.gateways[i]])
            .args(["--instances", &UNBOUNDED_INSTANCES.to_string()])
            .args(["--seed", &seed.to_string()])
            .arg("--report")
            .arg(&report)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        cluster.nodes.push(Node {
            pid: child.id().to_string(),
            child: Some(child),
            report,
        });
    }
    Ok(cluster)
}

fn gateways_accept(addrs: &[String]) -> bool {
    addrs.iter().all(|a| {
        a.to_socket_addrs()
            .ok()
            .and_then(|mut it| it.next())
            .is_some_and(|sock| {
                TcpStream::connect_timeout(&sock, Duration::from_millis(200)).is_ok()
            })
    })
}

/// The last 16 KiB of a report.
fn report_tail(path: &Path) -> Option<String> {
    let mut file = std::fs::File::open(path).ok()?;
    let len = file.metadata().ok()?.len();
    file.seek(SeekFrom::Start(len.saturating_sub(16 * 1024)))
        .ok()?;
    let mut tail = String::new();
    file.read_to_string(&mut tail).ok()?;
    Some(tail)
}

/// The last instance whose summary line a node has written.
fn last_completed(path: &Path) -> Option<u64> {
    report_tail(path)?
        .lines()
        .rev()
        .filter_map(summary_instance)
        .next()
}

/// The instance whose summary (and gateway counters) end the report, if
/// they do: the node is between that instance and the next and has sent
/// no wire of the next, since it writes a round's sent row before the
/// round's wires leave.
fn at_boundary(path: &Path) -> Option<u64> {
    let tail = report_tail(path)?;
    if !tail.ends_with('\n') {
        return None;
    }
    let last = tail.lines().rev().find(|l| !l.starts_with("W "))?;
    summary_instance(last)
}

// Linux signal numbers.
const SIGCONT: i32 = 18;
const SIGSTOP: i32 = 19;

fn signal(child: &Child, sig: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    if let Ok(pid) = i32::try_from(child.id()) {
        // SAFETY: kill(2) takes two integers and touches no memory of
        // this process; the child is not yet reaped, so the pid is its.
        unsafe {
            kill(pid, sig);
        }
    }
}

/// True once every thread of `pid` is stopped.
fn all_threads_stopped(pid: &str) -> bool {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return false;
    };
    tasks.flatten().all(|task| {
        std::fs::read_to_string(task.path().join("stat")).is_ok_and(|stat| {
            stat.rfind(')')
                .and_then(|i| stat[i + 1..].split_whitespace().next())
                .is_some_and(|state| state == "T" || state == "t")
        })
    })
}

/// Kill -9's node 0 between two instances, the point at which the
/// program's own `run_cluster` kills a node. Node 0 is stopped at an
/// arbitrary moment and killed if its report ends with the summary of an
/// instance that every peer has completed too: then each wire it sent has
/// been received, and no wire of its next instance has left. Otherwise it
/// resumes and is stopped again a moment later. Returns false if no such
/// moment came within `cap`; node 0 is killed all the same.
fn kill_between_instances(cluster: &mut Cluster, cap: Duration) -> bool {
    let deadline = Instant::now() + cap;
    let (victim, peers) = cluster
        .nodes
        .split_first_mut()
        .expect("a cluster has nodes");
    let landed = match &victim.child {
        None => false,
        Some(child) => loop {
            if Instant::now() >= deadline {
                break false;
            }
            signal(child, SIGSTOP);
            let stop_cap = Instant::now() + Duration::from_millis(50);
            while !all_threads_stopped(&victim.pid) && Instant::now() < stop_cap {
                std::thread::sleep(Duration::from_micros(100));
            }
            let ready = all_threads_stopped(&victim.pid)
                && at_boundary(&victim.report)
                    .is_some_and(|k| peers.iter().all(|p| last_completed(&p.report) >= Some(k)));
            if ready {
                break true;
            }
            signal(child, SIGCONT);
            std::thread::sleep(Duration::from_millis(1));
        },
    };
    kill(victim);
    landed
}

/// The instance of a complete `Y k degraded violated aborted pending`
/// summary line.
fn summary_instance(line: &str) -> Option<u64> {
    let parts: Vec<&str> = line.split_whitespace().collect();
    match parts[..] {
        ["Y", k, _, _, _, _] => k.parse().ok(),
        _ => None,
    }
}

/// The report without a last line a kill cut short.
fn complete_lines(text: &str) -> &str {
    text.rfind('\n').map_or("", |end| &text[..=end])
}

/// The number of instances, `0..count`, a node completed.
fn prefix(text: &str) -> u64 {
    complete_lines(text)
        .lines()
        .filter_map(summary_instance)
        .max()
        .map_or(0, |k| k + 1)
}

/// The report cut to instances `0..instances`.
fn truncate(text: &str, instances: u64) -> String {
    let mut out = String::new();
    for line in complete_lines(text).lines() {
        let mut parts = line.split_whitespace();
        let tag = parts.next().unwrap_or("");
        let instance = parts.next().and_then(|k| k.parse::<u64>().ok());
        // W lines carry no instance: they belong to the instance before.
        if tag != "W" && instance.is_none_or(|k| k >= instances) {
            if instance.is_some_and(|k| k >= instances) {
                break;
            }
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Received wires from peers in a report's `R` rows.
fn delivered_wires(text: &str, me: usize) -> u64 {
    text.lines()
        .filter(|l| l.starts_with("R "))
        .map(|l| {
            l.split_whitespace()
                .skip(3)
                .enumerate()
                .filter(|&(q, cell)| q != me && cell != "-")
                .count() as u64
        })
        .sum()
}

/// One timed request.
struct Sample {
    client: u64,
    req: u64,
    start: Instant,
    end: Instant,
    ack: Option<Ack>,
}

enum Until {
    Deadline(Instant),
    Count(u64),
}

/// Closed loop: the next request goes out when the previous one is
/// acked (or given up).
#[allow(clippy::too_many_arguments)]
fn client_loop(
    client: &mut GatewayClient,
    id: u64,
    next_req: &mut u64,
    seed: u64,
    until: &Until,
    cap: Instant,
    limit: u64,
    tracer: &mut Tracer,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    loop {
        let done = match until {
            Until::Deadline(t) => Instant::now() >= *t,
            Until::Count(c) => samples.len() as u64 >= *c,
        };
        if done || Instant::now() >= cap || *next_req >= limit {
            break;
        }
        let req = *next_req;
        *next_req += 1;
        let op: Op = load_op(seed, id, req);
        let start = Instant::now();
        let ack = tracer.span("gateway.GatewayClient::submit_req", None, Some(req), || {
            client.submit_req(req, &[op])
        });
        samples.push(Sample {
            client: id,
            req,
            start,
            end: Instant::now(),
            ack: ack.ok(),
        });
    }
    samples
}

/// Requests a client can send in a cycle before `load_op` writes one of
/// its keys again. Each cycle's clients number their requests from 0.
fn key_reuse_period(seed: u64) -> u64 {
    let key = |req| match load_op(seed, 1, req) {
        Op::Put { key, .. } | Op::Delete { key } => key,
        Op::Prepare { .. } => unreachable!("load_op writes"),
    };
    (1..)
        .find(|&req| key(req) == key(0))
        .expect("load_op keys repeat")
}

/// Runs both clients' loops on their own threads; no client's request
/// number reaches `limit`.
fn drive(
    clients: &mut [(GatewayClient, u64)],
    seed: u64,
    until: &Until,
    cap: Instant,
    limit: u64,
    tracer: &mut Tracer,
) -> Vec<Sample> {
    let results: Vec<(Vec<Sample>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, (client, next_req))| {
                let mut local = tracer.fork();
                scope.spawn(move || {
                    let samples = client_loop(
                        client,
                        i as u64 + 1,
                        next_req,
                        seed,
                        until,
                        cap,
                        limit,
                        &mut local,
                    );
                    (samples, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for (samples, local) in results {
        all.extend(samples);
        tracer.absorb(local);
    }
    all
}

fn client_stats(clients: &[(GatewayClient, u64)]) -> ClientStats {
    clients.iter().fold(ClientStats::default(), |acc, (c, _)| {
        let s = c.stats;
        ClientStats {
            submitted: acc.submitted + s.submitted,
            acked: acc.acked + s.acked,
            resubmissions: acc.resubmissions + s.resubmissions,
            busy: acc.busy + s.busy,
            redirects: acc.redirects + s.redirects,
            reconnects: acc.reconnects + s.reconnects,
            gave_up: acc.gave_up + s.gave_up,
        }
    })
}

fn node_cpu(cluster: &Cluster) -> Duration {
    cluster
        .nodes
        .iter()
        .filter(|n| n.child.is_some())
        .filter_map(|n| cpu_of(&n.pid))
        .map(Cpu::total)
        .sum()
}

fn node_rss(cluster: &Cluster) -> f64 {
    cluster
        .nodes
        .iter()
        .filter(|n| n.child.is_some())
        .filter_map(|n| peak_rss_mb(&n.pid))
        .fold(0.0, f64::max)
}

/// Everything one cycle measured.
#[derive(Default)]
struct Cycle {
    /// False for a set-up-only cycle.
    is_timed: bool,
    setup: f64,
    timed: Vec<Sample>,
    windows: Vec<Window>,
    /// Failover: kill to first ack, requests issued before it, kill to
    /// last ack, and the last acked instance.
    unavailable: Option<f64>,
    outage_requests: u64,
    kill_to_last_ack: f64,
    last_acked_instance: u64,
    degraded_instance_ms: Option<f64>,
    instances_spanned: u64,
    instance_wall: f64,
    node_cpu: Duration,
    client_cpu: Duration,
    stats: ClientStats,
    merge: f64,
    teardown: f64,
    report_bytes: u64,
    node_instances: u64,
    delivered: u64,
    admitted: u64,
    busy_rejected: u64,
    /// Peak RSS of the benchmark process and the nodes while serving,
    /// and of the benchmark process while merging.
    rss: f64,
    merge_rss: f64,
}

/// One timed window: acked requests per second, latency p50 and p90.
struct Window {
    rate: f64,
    p50: f64,
    p90: f64,
}

fn window<'a>(samples: impl Iterator<Item = &'a Sample>, seconds: f64) -> Option<Window> {
    let lat: Vec<f64> = samples
        .filter(|s| s.ack.is_some())
        .map(|s| ms(s.end - s.start))
        .collect();
    (!lat.is_empty()).then(|| Window {
        rate: lat.len() as f64 / seconds,
        p50: median(&lat),
        p90: quantile(&lat, 0.9),
    })
}

impl Cycle {
    fn latencies(&self) -> Vec<f64> {
        self.timed
            .iter()
            .filter(|s| s.ack.is_some())
            .map(|s| ms(s.end - s.start))
            .collect()
    }
}

#[allow(clippy::too_many_lines)]
fn cycle(
    ctx: &Ctx,
    mode: Mode,
    index: u64,
    timed: bool,
    phase: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Cycle {
    let mut c = Cycle {
        is_timed: timed,
        ..Cycle::default()
    };
    let limit = key_reuse_period(splitmix(ctx.seed.wrapping_add(index)));
    let seed = splitmix(ctx.seed.wrapping_add(index));
    let dir = ctx.work_dir.join(format!("cluster-{}-{index}", ctx.seed));
    let started = Instant::now();
    let spawned = tracer.span("cluster.spawn_until_ready", None, None, || {
        let cluster = spawn(&ctx.ssp_bin, &dir, seed)?;
        if wait_until(READY_CAP, || gateways_accept(&cluster.gateways)) {
            Ok(cluster)
        } else {
            Err(std::io::Error::other(
                "gateways did not accept within the cap",
            ))
        }
    });
    let mut cluster = match spawned {
        Ok(cluster) => cluster,
        Err(e) => {
            out.attempted += 1;
            out.problem(1, format!("cycle {index}: spawning the cluster: {e}"));
            return c;
        }
    };
    let mut clients: Vec<(GatewayClient, u64)> = (1..=CLIENTS)
        .map(|id| {
            (
                GatewayClient::new(ClientConfig::new(id, cluster.gateways.clone())),
                0,
            )
        })
        .collect();

    let warm_cap = Instant::now() + FAILOVER_PHASE_CAP;
    let warm_span = tracer.open("cluster.warm_up", None, None);
    let warm = drive(
        &mut clients,
        seed,
        &Until::Count(WARM_UP_REQUESTS),
        warm_cap,
        limit,
        tracer,
    );
    tracer.close(warm_span);
    c.setup = started.elapsed().as_secs_f64();

    let stats_before = client_stats(&clients);
    let cpu_before = (node_cpu(&cluster), cpu_of("self").unwrap_or_default());
    let kill9 = timed && mode == Mode::Failover;
    let (phase_start, until) = match mode {
        _ if !timed => (Instant::now(), Until::Count(0)),
        Mode::Gateway => {
            let now = Instant::now();
            (now, Until::Deadline(now + phase))
        }
        Mode::Failover => {
            c.rss = peak_rss_mb(&cluster.nodes[0].pid).unwrap_or(0.0);
            let landed = tracer.span("cluster.kill9_node0", None, None, || {
                kill_between_instances(&mut cluster, KILL_CAP)
            });
            if !landed {
                out.problem(
                    1,
                    format!("cycle {index}: node 0 was not between instances within the cap"),
                );
            }
            (Instant::now(), Until::Count(FAILOVER_REQUESTS))
        }
    };
    c.timed = drive(
        &mut clients,
        seed,
        &until,
        phase_start + FAILOVER_PHASE_CAP,
        limit,
        tracer,
    );
    if timed && mode == Mode::Gateway {
        // The phase ends early if a client ran out of keys: windows cover
        // only the time both clients were sending.
        let stopped = (1..=CLIENTS)
            .filter_map(|id| {
                c.timed
                    .iter()
                    .filter(|s| s.client == id)
                    .map(|s| s.end)
                    .max()
            })
            .min()
            .unwrap_or(phase_start);
        let phase = (stopped - phase_start).min(phase);
        let count = (phase.as_secs_f64() / WINDOW.as_secs_f64())
            .round()
            .max(1.0) as u32;
        let len = phase / count;
        c.windows = (0..count)
            .filter_map(|k| {
                let (from, to) = (phase_start + len * k, phase_start + len * (k + 1));
                window(
                    c.timed.iter().filter(|s| s.end >= from && s.end < to),
                    len.as_secs_f64(),
                )
            })
            .collect();
    }
    c.node_cpu = node_cpu(&cluster).saturating_sub(cpu_before.0);
    c.client_cpu = cpu_of("self")
        .unwrap_or_default()
        .total()
        .saturating_sub(cpu_before.1.total());
    let stats_after = client_stats(&clients);
    c.stats = ClientStats {
        resubmissions: stats_after.resubmissions - stats_before.resubmissions,
        busy: stats_after.busy - stats_before.busy,
        redirects: stats_after.redirects - stats_before.redirects,
        reconnects: stats_after.reconnects - stats_before.reconnects,
        ..ClientStats::default()
    };

    let acked: Vec<(&Sample, Ack)> = c
        .timed
        .iter()
        .filter_map(|s| s.ack.map(|a| (s, a)))
        .collect();
    if let (Some(first), Some(last)) = (
        acked.iter().min_by_key(|(s, _)| s.end),
        acked.iter().max_by_key(|(s, _)| s.end),
    ) {
        c.instances_spanned = last.1.instance.saturating_sub(first.1.instance);
        c.instance_wall = (last.0.end - first.0.end).as_secs_f64();
        if kill9 {
            c.unavailable = Some(ms(first.0.end - phase_start));
            c.outage_requests = c.timed.iter().filter(|s| s.start < first.0.end).count() as u64;
            // Throughput after a crash is counted from the kill.
            c.kill_to_last_ack = (last.0.end - phase_start).as_secs_f64();
            c.windows = window(c.timed.iter(), c.kill_to_last_ack)
                .into_iter()
                .collect();
            c.last_acked_instance = last.1.instance;
        }
    }

    // Stop: let every live node complete the last acked instance, then
    // kill them all and merge the common prefix.
    let teardown_start = Instant::now();
    let last_acked = warm
        .iter()
        .chain(&c.timed)
        .filter_map(|s| s.ack.map(|a| a.instance))
        .max();
    let settled = wait_until(SETTLE_CAP, || {
        cluster
            .nodes
            .iter()
            .filter(|n| n.child.is_some())
            .all(|n| last_completed(&n.report) >= last_acked)
    });
    if !settled {
        out.problem(
            0,
            format!("cycle {index}: live nodes did not reach the last acked instance"),
        );
    }
    // The benchmark process's own peak counts only before its first
    // merge: the allocator keeps what a merge used, so later peaks are the
    // merge's.
    c.rss = c.rss.max(node_rss(&cluster));
    if index == 0 {
        c.rss = c.rss.max(peak_rss_mb("self").unwrap_or(0.0));
    }
    tracer.span("cluster.stop", None, None, || {
        for node in &mut cluster.nodes {
            kill(node);
        }
    });
    let texts: Vec<String> = cluster
        .nodes
        .iter()
        .map(|n| std::fs::read_to_string(&n.report).unwrap_or_default())
        .collect();
    let victim = usize::from(kill9);
    let common = texts[victim..].iter().map(|t| prefix(t)).min().unwrap_or(0);
    let reports: Vec<String> = texts.iter().map(|t| truncate(t, common)).collect();
    for (i, r) in reports.iter().enumerate().skip(victim) {
        c.report_bytes += r.len() as u64;
        c.node_instances += common;
        c.delivered += delivered_wires(r, i);
    }
    let mut node_cfg = NodeConfig::new(0, NODES, String::new(), Vec::new(), seed);
    node_cfg.instances = common;
    reset_peak_rss();
    let merge_start = Instant::now();
    let merged = tracer.span("cluster.merge_reports", None, None, || {
        merge_reports(&node_cfg, &reports)
    });
    c.merge = merge_start.elapsed().as_secs_f64();
    c.merge_rss = peak_rss_mb("self").unwrap_or(0.0);

    let all: Vec<&Sample> = warm.iter().chain(&c.timed).collect();
    out.attempted += all.len() as u64;
    let unacked = all.iter().filter(|s| s.ack.is_none()).count() as u64;
    if unacked > 0 {
        out.problem(
            unacked,
            format!("cycle {index}: {unacked} requests gave up unacked"),
        );
    }
    match merged {
        Err(e) => out.problem(
            all.len() as u64 - unacked,
            format!("cycle {index}: merge: {e}"),
        ),
        Ok(report) => {
            let s = &report.stats;
            if s.audit_violations + s.audit_divergences > 0 {
                let first = report
                    .audits
                    .iter()
                    .find(|a| a.violation.is_some() || a.divergence.is_some());
                out.problem(
                    s.audit_violations + s.audit_divergences,
                    format!(
                        "cycle {index}: {} audit violations, {} divergences; first: {first:?}",
                        s.audit_violations, s.audit_divergences
                    ),
                );
            }
            let crashed: Vec<usize> = report.crashed_nodes.iter().map(|&(p, _)| p).collect();
            let expected: &[usize] = if kill9 { &[0] } else { &[] };
            if crashed != expected {
                out.problem(
                    1,
                    format!("cycle {index}: crashed nodes {crashed:?}, expected {expected:?}"),
                );
            }
            if let (true, Some(&(_, crashed_in))) = (kill9, report.crashed_nodes.first()) {
                // Wall time after the kill ÷ instances decided after it.
                let decided = c.last_acked_instance + 1 - crashed_in.min(c.last_acked_instance);
                c.degraded_instance_ms = Some(c.kill_to_last_ack * 1e3 / decided as f64);
            }
            // Exactly-once at the store: every acked request was decided in
            // the audited prefix, and its `load_op` write, to a key no other
            // request of the cycle writes, is in the merged store.
            let mut written: BTreeMap<u32, u64> = BTreeMap::new();
            let mut wrong = 0u64;
            for s in all.iter().filter(|s| s.ack.is_some()) {
                let decided = s.ack.is_some_and(|a| a.instance < common);
                let stored = match load_op(seed, s.client, s.req) {
                    Op::Put { key, value } => {
                        written.insert(key, value).is_none() && report.kv.get(key) == Some(value)
                    }
                    _ => false,
                };
                wrong += u64::from(!(decided && stored));
            }
            if wrong > 0 {
                out.problem(
                    wrong,
                    format!(
                        "cycle {index}: {wrong} acked requests not in the audited prefix or \
                         missing from the merged store"
                    ),
                );
            }
            if let Some(gw) = s.gateway {
                c.admitted = gw.admitted;
                c.busy_rejected = gw.busy_rejected;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&cluster.dir);
    c.teardown = teardown_start.elapsed().as_secs_f64();
    c
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    let count = match mode {
        Mode::Gateway => GATEWAY_CYCLES,
        Mode::Failover => FAILOVER_CYCLES,
    };
    let setup_only = match mode {
        Mode::Gateway => 0,
        Mode::Failover => FAILOVER_SETUP_ONLY_CYCLES,
    };
    let phase = Duration::from_secs_f64(ctx.seconds / count as f64);
    // Set-up-only cycles sit between the timed ones, so that set-ups are
    // spread over the run.
    let stride = (count + setup_only) / count;
    let all_cycles: Vec<Cycle> = (0..count + setup_only)
        .map(|i| {
            let timed = i % stride == 0 && i / stride < count;
            cycle(ctx, mode, i, timed, phase, tracer, &mut out)
        })
        .collect();
    let cycles: Vec<&Cycle> = all_cycles.iter().filter(|c| c.is_timed).collect();

    // Gated numbers: medians over windows.
    let windows: Vec<&Window> = cycles.iter().flat_map(|c| &c.windows).collect();
    if !windows.is_empty() {
        let of = |f: fn(&Window) -> f64| median(&windows.iter().map(|w| f(w)).collect::<Vec<_>>());
        out.e2e("ops_per_s", of(|w| w.rate));
        out.e2e("op_p50_ms", of(|w| w.p50));
        out.e2e("op_p90_ms", of(|w| w.p90));
    }
    out.e2e(
        "ok_share",
        1.0 - ratio(out.failed as f64, out.attempted as f64),
    );
    out.e2e(
        "setup_s",
        median(&all_cycles.iter().map(|c| c.setup).collect::<Vec<_>>()),
    );
    out.e2e(
        "peak_rss_mb",
        all_cycles.iter().map(|c| c.rss).fold(0.0, f64::max),
    );

    // Per-layer numbers: pooled over cycles.
    let latencies: Vec<f64> = cycles.iter().flat_map(|c| c.latencies()).collect();
    let rounds: Vec<f64> = cycles
        .iter()
        .flat_map(|c| {
            c.timed
                .iter()
                .filter_map(|s| s.ack.map(|a| f64::from(a.round)))
        })
        .collect();
    let n_acked = latencies.len() as f64;
    if !latencies.is_empty() {
        out.layer("gateway.submit_ms_p99", quantile(&latencies, 0.99));
        out.e2e("ack_rounds_mean", mean(&rounds));
    }
    out.layer(
        "cluster.merge_rss_mb",
        cycles.iter().map(|c| c.merge_rss).fold(0.0, f64::max),
    );
    let sum = |f: fn(&Cycle) -> u64| cycles.iter().map(|c| f(c)).sum::<u64>() as f64;
    out.layer("gateway.resubmissions", sum(|c| c.stats.resubmissions));
    out.layer("gateway.busy", sum(|c| c.stats.busy));
    out.layer("gateway.redirects", sum(|c| c.stats.redirects));
    out.layer("gateway.reconnects", sum(|c| c.stats.reconnects));
    out.layer(
        "gateway.admitted_share",
        ratio(sum(|c| c.admitted), sum(|c| c.admitted + c.busy_rejected)),
    );
    let instances = sum(|c| c.instances_spanned);
    let instance_wall: f64 = cycles.iter().map(|c| c.instance_wall).sum();
    out.layer("cluster.instances_per_s", ratio(instances, instance_wall));
    out.layer("cluster.ops_per_instance", ratio(n_acked, instances));
    out.layer(
        "cluster.report_bytes_per_instance",
        ratio(sum(|c| c.report_bytes), sum(|c| c.node_instances)),
    );
    out.layer(
        "transport.delivered_per_instance",
        ratio(sum(|c| c.delivered), sum(|c| c.node_instances)),
    );
    let node_cpu: Duration = cycles.iter().map(|c| c.node_cpu).sum();
    let client_cpu: Duration = cycles.iter().map(|c| c.client_cpu).sum();
    out.layer("cluster.node_cpu_ms_per_op", ratio(ms(node_cpu), n_acked));
    out.layer(
        "cluster.client_cpu_ms_per_op",
        ratio(ms(client_cpu), n_acked),
    );
    out.layer(
        "cluster.merge_s",
        median(&cycles.iter().map(|c| c.merge).collect::<Vec<_>>()),
    );
    out.layer(
        "cluster.teardown_s",
        median(&cycles.iter().map(|c| c.teardown).collect::<Vec<_>>()),
    );

    if mode == Mode::Failover {
        let unavailable: Vec<f64> = cycles.iter().filter_map(|c| c.unavailable).collect();
        if !unavailable.is_empty() {
            out.layer("gateway.unavailable_ms", median(&unavailable));
        }
        out.layer(
            "gateway.outage_requests",
            sum(|c| c.outage_requests) / count as f64,
        );
        let degraded: Vec<f64> = cycles
            .iter()
            .filter_map(|c| c.degraded_instance_ms)
            .collect();
        if !degraded.is_empty() {
            out.layer("cluster.degraded_instance_ms", median(&degraded));
        }
    }
    if tracer.enabled() {
        attribution(mode, &out);
    }
    out
}

/// Splits the client-visible latency using only numbers seen from
/// outside the program.
fn attribution(mode: Mode, out: &Outcome) {
    let get = |name: &str| {
        out.end_to_end
            .get(name)
            .or_else(|| out.per_layer.get(name))
            .copied()
            .unwrap_or(0.0)
    };
    match mode {
        Mode::Gateway => {
            let p50 = get("op_p50_ms");
            let period = ratio(1e3, get("cluster.instances_per_s"));
            eprintln!("gateway op_p50_ms attribution (outside view)");
            eprintln!("  op_p50_ms                      {p50:>10.3}");
            eprintln!("  instance period (1/inst rate)  {period:>10.3}");
            eprintln!("  queueing + ack path (rest)     {:>10.3}", p50 - period);
            eprintln!(
                "  op_p50 in instance periods     {:>10.3}",
                ratio(p50, period)
            );
        }
        Mode::Failover => {
            let degraded = get("cluster.degraded_instance_ms");
            let drain = ms(NodeConfig::new(0, NODES, String::new(), Vec::new(), 0).drain);
            eprintln!("failover degraded path (outside view)");
            eprintln!("  cluster.degraded_instance_ms   {degraded:>10.3}");
            eprintln!("  configured drain (ms)          {drain:>10.3}");
            eprintln!(
                "  ratio to drain                 {:>10.3}",
                degraded / drain
            );
        }
    }
}
