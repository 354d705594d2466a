//! End-to-end certification of multi-process serving: `ssp
//! serve-cluster` spawns one OS process per consensus process over
//! real loopback sockets, and every claim the in-process engine makes
//! must survive the move to a real network — clean audits across
//! seeds, byte-level agreement with the in-process oracle on the
//! deterministic core, `kill -9` surfacing only through the PFD
//! timeout, and the Δ-violation trichotomy on live sockets.

use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use ssp::engine::{merge_reports, NodeConfig};

fn ssp(args: &[&str]) -> (bool, String, String) {
    let exe = env!("CARGO_BIN_EXE_ssp");
    let out = Command::new(exe).args(args).output().expect("spawn ssp");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssp-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Strips the one legitimately different field from the deterministic
/// stats core: the in-process engine takes the early-retire fast path,
/// the socket cluster always plays both rounds.
fn without_retired(json: &str) -> String {
    let mut out = String::new();
    for part in json
        .trim_end()
        .trim_start_matches('{')
        .trim_end_matches('}')
        .split(',')
    {
        if part.starts_with("\"retired_instances\"") {
            continue;
        }
        if !out.is_empty() {
            out.push(',');
        }
        out.push_str(part);
    }
    out
}

/// 20 seeds of failure-free serving over real sockets: every instance
/// audited clean, every verdict `RS`, and the deterministic core
/// byte-identical to the in-process engine run with the same seed.
#[test]
fn loopback_conformance_across_twenty_seeds() {
    let dir = scratch("conf");
    for seed in 1..=20u64 {
        let seed_s = seed.to_string();
        let sock_json = dir.join(format!("sock-{seed}.json"));
        let run_dir = dir.join(format!("run-{seed}"));
        let (ok, stdout, stderr) = ssp(&[
            "serve-cluster",
            "-n",
            "3",
            "--instances",
            "3",
            "--seed",
            &seed_s,
            "--fd-timeout-ms",
            "8000",
            "--stats-out",
            sock_json.to_str().unwrap(),
            "--dir",
            run_dir.to_str().unwrap(),
        ]);
        assert!(ok, "seed {seed}: cluster failed\n{stdout}\n{stderr}");
        assert!(
            stdout.contains("verdicts: RS, RS, RS"),
            "seed {seed}: non-RS verdict\n{stdout}"
        );
        assert!(
            stdout.contains("suspected: none"),
            "seed {seed}: phantom suspicion\n{stdout}"
        );

        let oracle_json = dir.join(format!("oracle-{seed}.json"));
        let (ok, stdout, stderr) = ssp(&[
            "serve",
            "a1",
            "rs",
            "-n",
            "3",
            "--instances",
            "3",
            "--seed",
            &seed_s,
            "--batch",
            "4",
            "--clients",
            "8",
            "--failure-free",
            "--stats-out",
            oracle_json.to_str().unwrap(),
        ]);
        assert!(
            ok,
            "seed {seed}: in-process oracle failed\n{stdout}\n{stderr}"
        );
        let sock = std::fs::read_to_string(&sock_json).unwrap();
        let oracle = std::fs::read_to_string(&oracle_json).unwrap();
        assert_eq!(
            without_retired(&sock),
            without_retired(&oracle),
            "seed {seed}: socket run diverged from the in-process oracle"
        );
    }
}

/// Delivery-projected log diff for a failure-free seed: projected to
/// each instance's decision round, the socket transport must deliver
/// exactly the wires the in-process transport delivers — same
/// payloads, same order.
#[test]
fn socket_run_log_matches_in_process_delivery_projection() {
    let dir = scratch("logdiff");
    let sock_log = dir.join("sock.jsonl");
    let oracle_log = dir.join("oracle.jsonl");
    let (ok, stdout, stderr) = ssp(&[
        "serve-cluster",
        "-n",
        "3",
        "--instances",
        "4",
        "--seed",
        "11",
        "--fd-timeout-ms",
        "8000",
        "--logs-out",
        sock_log.to_str().unwrap(),
        "--dir",
        dir.join("run").to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    let (ok, stdout, stderr) = ssp(&[
        "serve",
        "a1",
        "rs",
        "-n",
        "3",
        "--instances",
        "4",
        "--seed",
        "11",
        "--batch",
        "4",
        "--clients",
        "8",
        "--failure-free",
        "--logs-out",
        oracle_log.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}\n{stderr}");

    // Project both logs to decision-relevant delivery: instance
    // headers plus round-1 deliver events (failure-free A1 decides in
    // round 1; round 2 is the relay round the early-retire fast path
    // skips in-process).
    let project = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| {
                l.contains("\"instance\"")
                    || (l.contains("\"ev\":\"deliver\"") && l.contains("\"round\":1"))
            })
            .map(str::to_string)
            .collect()
    };
    let sock = project(&std::fs::read_to_string(&sock_log).unwrap());
    let oracle = project(&std::fs::read_to_string(&oracle_log).unwrap());
    assert!(!sock.is_empty(), "socket log projection must not be empty");
    assert_eq!(
        sock, oracle,
        "delivery-projected run logs diverge between socket and in-process transports"
    );
}

/// `kill -9` tolerance: a SIGKILL'd node surfaces as suspicion of
/// exactly that node, every decided instance still audits clean, and
/// the surviving replicas agree on the store.
#[test]
fn kill_nine_surfaces_as_suspicion_of_exactly_the_victim() {
    let dir = scratch("kill");
    let (ok, stdout, stderr) = ssp(&[
        "serve-cluster",
        "-n",
        "4",
        "--instances",
        "6",
        "--seed",
        "7",
        "--kill9",
        "3",
        "--kill-at",
        "1",
        "--gap-ms",
        "60",
        "--fd-timeout-ms",
        "1500",
        "--dir",
        dir.to_str().unwrap(),
    ]);
    assert!(ok, "cluster with kill -9 failed\n{stdout}\n{stderr}");
    assert!(
        stdout.contains("suspected: p3 "),
        "exactly the killed node must be suspected\n{stdout}"
    );
    assert!(
        !stdout.contains("p0") && !stdout.contains("p1") && !stdout.contains("p2"),
        "no survivor may be suspected\n{stdout}"
    );
    assert!(
        stdout.contains("0 violations, 0 divergences"),
        "every decided instance must audit clean\n{stdout}"
    );
    assert!(
        stdout.contains("6 decided"),
        "survivors must keep deciding after the kill\n{stdout}"
    );
}

/// The §3-caveat trichotomy on live sockets: the same scripted proxy
/// delay (Δ < delay < PFD timeout) flagged, degraded, or aborted
/// purely by the configured mode.
#[test]
fn proxy_delta_violation_reproduces_the_trichotomy() {
    let dir = scratch("tri");
    let run = |mode: &str, tag: &str| -> String {
        let (ok, stdout, stderr) = ssp(&[
            "serve-cluster",
            "-n",
            "3",
            "--instances",
            "2",
            "--seed",
            "5",
            "--delta-ms",
            "50",
            "--degrade",
            mode,
            "--proxy-delay-ms",
            "200",
            "--proxy-delay-rate",
            "1",
            "--proxy-seed",
            "9",
            "--fd-timeout-ms",
            "8000",
            "--round-timeout-ms",
            "15000",
            "--dir",
            dir.join(tag).to_str().unwrap(),
        ]);
        assert!(ok, "mode {mode}: cluster errored\n{stdout}\n{stderr}");
        stdout
    };
    let off = run("off", "off");
    assert!(
        off.contains("verdicts: SynchronyViolation"),
        "off mode must flag, not certify\n{off}"
    );
    let rws = run("rws", "rws");
    assert!(
        rws.contains("RWS (degraded at"),
        "rws mode must downgrade mid-run and stay certified\n{rws}"
    );
    assert!(
        rws.contains("2 decided"),
        "degraded runs still decide\n{rws}"
    );
    let abort = run("abort", "abort");
    assert!(
        abort.contains("verdicts: aborted"),
        "abort mode must halt the run\n{abort}"
    );
    assert!(
        abort.contains("0 decided"),
        "aborted instances must decide nothing\n{abort}"
    );
}

/// Bit-determinism of the certified outcome: two runs of the same
/// seeded cluster produce byte-identical deterministic stats JSON and
/// identical verdict lines.
#[test]
fn double_run_is_bit_deterministic() {
    let dir = scratch("det");
    let mut outputs = Vec::new();
    for tag in ["a", "b"] {
        let json = dir.join(format!("{tag}.json"));
        let (ok, stdout, stderr) = ssp(&[
            "serve-cluster",
            "-n",
            "3",
            "--instances",
            "4",
            "--seed",
            "11",
            "--fd-timeout-ms",
            "8000",
            "--stats-out",
            json.to_str().unwrap(),
            "--dir",
            dir.join(tag).to_str().unwrap(),
        ]);
        assert!(ok, "{stdout}\n{stderr}");
        let verdicts = stdout
            .lines()
            .filter(|l| l.starts_with("verdicts:") || l.starts_with("digest:"))
            .collect::<Vec<_>>()
            .join("\n");
        outputs.push((std::fs::read_to_string(&json).unwrap(), verdicts));
    }
    assert_eq!(
        outputs[0].0, outputs[1].0,
        "stats JSON must be byte-identical"
    );
    assert_eq!(
        outputs[0].1, outputs[1].1,
        "verdicts and digest must repeat"
    );
}

/// The RS drain is paid once per silence, anchored at the suspicion:
/// after a `kill -9` of the round-1 coordinator, every later round
/// closes without the dead peer's wire at once. With a 400 ms drain,
/// 58 post-suspicion instances that paid it per round would need over
/// 45 s; the whole run must finish in less than 50 × drain.
#[test]
fn survivors_pay_the_drain_once_per_suspicion() {
    let dir = scratch("drain");
    let drain = Duration::from_millis(400);
    let started = Instant::now();
    let (ok, stdout, stderr) = ssp(&[
        "serve-cluster",
        "-n",
        "3",
        "--instances",
        "60",
        "--seed",
        "7",
        "--kill9",
        "0",
        "--kill-at",
        "1",
        "--gap-ms",
        "10",
        "--fd-timeout-ms",
        "600",
        "--drain",
        "400",
        "--dir",
        dir.to_str().unwrap(),
    ]);
    let wall = started.elapsed();
    assert!(ok, "cluster with kill -9 failed\n{stdout}\n{stderr}");
    assert!(
        stdout.contains("suspected: p0 (crashed in instance 2)"),
        "the coordinator must be suspected right after instance 1\n{stdout}"
    );
    assert!(
        stdout.contains("60 decided") && stdout.contains("0 violations, 0 divergences"),
        "survivors must decide every instance and audit clean\n{stdout}"
    );
    assert!(
        wall < drain * 50,
        "58 post-suspicion instances took {wall:?}, not less than 50 × drain\n{stdout}"
    );
}

/// Loopback addresses for `n` nodes: bind port 0, keep the number.
/// Every probe listener stays bound until the set is complete, so the
/// ports are distinct.
fn free_addrs(n: usize) -> Vec<String> {
    let probes: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    probes
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect()
}

fn report_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("node{i}.log"))
}

fn stderr_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("node{i}.err"))
}

/// Spawns `n` `ssp serve a1 rs --node` processes on fresh loopback
/// ports. A probed port is free only until its listener drops, so a
/// test running in parallel can take it before the node binds it: when
/// a node exits early with `Address already in use`, the whole set is
/// killed and relaunched on fresh ports, at most three times in all.
fn launch_nodes(n: usize, dir: &Path, args: &[&str]) -> Vec<Child> {
    for _ in 0..3 {
        let mut nodes = spawn_nodes(&free_addrs(n), dir, args);
        if !lost_a_port(&mut nodes, dir) {
            return nodes;
        }
        for node in &mut nodes {
            let _ = node.kill();
            let _ = node.wait();
        }
    }
    panic!("3 launches in a row lost a port to another process");
}

/// Spawns one node per address, each writing its stderr next to its
/// report.
fn spawn_nodes(addrs: &[String], dir: &Path, args: &[&str]) -> Vec<Child> {
    (0..addrs.len())
        .map(|i| {
            let stderr = std::fs::File::create(stderr_path(dir, i)).expect("stderr file");
            Command::new(env!("CARGO_BIN_EXE_ssp"))
                .args(["serve", "a1", "rs", "--node", &i.to_string()])
                .args(["--listen", &addrs[i], "--peers", &addrs.join(",")])
                .args(["--report", report_path(dir, i).to_str().unwrap()])
                .args(args)
                .stderr(stderr)
                .spawn()
                .expect("spawn node")
        })
        .collect()
}

/// Waits until every node has written a report line or exited, and
/// tells whether one failed because its port was already taken.
fn lost_a_port(nodes: &mut [Child], dir: &Path) -> bool {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut settled = true;
        for (i, node) in nodes.iter_mut().enumerate() {
            match node.try_wait().expect("poll node") {
                Some(status) if !status.success() => {
                    return std::fs::read_to_string(stderr_path(dir, i))
                        .unwrap_or_default()
                        .contains("Address already in use");
                }
                Some(_) => {}
                None => {
                    settled &= std::fs::metadata(report_path(dir, i)).is_ok_and(|m| m.len() > 0);
                }
            }
        }
        if settled || Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn signal(child: &Child, sig: &str) {
    let status = Command::new("kill")
        .args([sig, &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill {sig} failed");
}

/// Cells of the `tag` row (`S` or `R`) for `(k, r)` in a node report.
fn row<'a>(report: &'a str, tag: &str, k: u64, r: u32) -> Option<Vec<&'a str>> {
    let head = format!("{tag} {k} {r} ");
    report
        .lines()
        .find_map(|l| l.strip_prefix(&head))
        .map(|cells| cells.split(' ').collect())
}

/// The report grammar the benchmark parses (`Y`, `R` and `W` lines in
/// `perfbench`) stays put: a failure-free node writes, per instance,
/// exactly `S 1`, `R 1`, `D` (round 1), `S 2`, `R 2`, `Y`, and then the
/// trailing `T` and `K` lines, each with its field count.
#[test]
fn a_failure_free_node_report_keeps_its_line_order() {
    let dir = scratch("grammar");
    let mut nodes = launch_nodes(
        3,
        &dir,
        &[
            "--instances",
            "3",
            "--seed",
            "5",
            "--fd-timeout-ms",
            "10000",
        ],
    );
    for node in &mut nodes {
        assert!(node.wait().expect("wait node").success(), "a node failed");
    }
    let mut expected = Vec::new();
    for k in 0..3 {
        for head in [
            "S {k} 1", "R {k} 1", "D {k} 1", "S {k} 2", "R {k} 2", "Y {k}",
        ] {
            expected.push(head.replace("{k}", &k.to_string()));
        }
    }
    expected.extend(["T".to_string(), "K".to_string()]);
    for i in 0..3 {
        let report = std::fs::read_to_string(report_path(&dir, i)).expect("report");
        let mut heads = Vec::new();
        for line in report.lines() {
            let fields: Vec<&str> = line.split(' ').collect();
            let (head, width) = match fields[0] {
                "S" | "R" => (3, 3 + 3),
                "D" => (3, 4),
                "Y" => (2, 6),
                "T" => (1, 9),
                "K" => (1, 3),
                _ => (fields.len(), 0),
            };
            assert_eq!(fields.len(), width, "node {i}: {line:?}");
            heads.push(fields[..head].join(" "));
        }
        assert_eq!(heads, expected, "node {i}:\n{report}");
    }
}

/// A falsely suspected peer: node 2 is `SIGSTOP`ped past
/// `fd_timeout + drain`, so the survivors close its rounds without its
/// wires, then `SIGCONT`ed, so those wires arrive late. With the Δ
/// guard armed (`--delta-ms`, degrade off), the late wires must surface
/// as pending at the survivors and every instance that lost one must be
/// flagged — never certified as an `RS` run.
#[test]
fn a_stopped_peer_surfaces_as_pending_and_flagged_never_certified() {
    const INSTANCES: u64 = 30;
    let dir = scratch("stop");
    let mut nodes = launch_nodes(
        3,
        &dir,
        &[
            "--instances",
            &INSTANCES.to_string(),
            "--seed",
            "3",
            "--gap-ms",
            "20",
            "--fd-timeout-ms",
            "400",
            "--drain",
            "150",
            "--delta-ms",
            "100",
            "--degrade",
            "off",
        ],
    );
    let victim = report_path(&dir, 2);
    let deadline = Instant::now() + Duration::from_secs(60);
    while !std::fs::read_to_string(&victim)
        .unwrap_or_default()
        .lines()
        .any(|l| l.starts_with("Y 3 "))
    {
        assert!(
            Instant::now() < deadline,
            "node 2 never finished instance 3"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    signal(&nodes[2], "-STOP");
    std::thread::sleep(Duration::from_millis(400 + 150 + 350));
    signal(&nodes[2], "-CONT");
    for node in &mut nodes {
        assert!(node.wait().expect("wait node").success(), "a node failed");
    }
    let reports: Vec<String> = (0..3)
        .map(|i| std::fs::read_to_string(report_path(&dir, i)).expect("report"))
        .collect();

    // Pending at the survivors: the summary lines count the late wires.
    let pending: u64 = reports[..2]
        .iter()
        .flat_map(|r| r.lines().filter(|l| l.starts_with("Y ")))
        .filter_map(|l| l.split(' ').nth(5)?.parse::<u64>().ok())
        .sum();
    assert!(pending > 0, "node 2's late wires must surface as pending");

    let mut cfg = NodeConfig::new(0, 3, String::new(), Vec::new(), 3);
    cfg.instances = INSTANCES;
    let merged = merge_reports(&cfg, &reports).expect("merge");
    assert_eq!(merged.audits.len() as u64, INSTANCES);
    assert!(merged.crashed_nodes.is_empty(), "nobody crashed");
    let mut lost = 0;
    for audit in &merged.audits {
        assert!(
            audit.violation.is_none() && audit.divergence.is_none(),
            "{audit:?}"
        );
        let k = audit.instance;
        // Did a survivor close a round without a wire node 2 sent?
        let lost_wire = (1..=2).any(|r| {
            let Some(sent) = row(&reports[2], "S", k, r) else {
                return false;
            };
            (0..2).any(|q| {
                sent[q] != "-" && row(&reports[q], "R", k, r).is_some_and(|got| got[2] == "-")
            })
        });
        if lost_wire {
            lost += 1;
            assert_eq!(
                audit.verdict.to_string(),
                "SynchronyViolation",
                "instance {k} lost a live peer's wire yet was certified"
            );
        }
    }
    assert!(lost > 0, "the stop must outlast fd_timeout + drain");
}
