//! End-to-end certification of the external-client subsystem: the
//! `ssp-gateway` crate driving gateway-fronted clusters and the
//! in-process sharded engine.
//!
//! The contract under test is *exactly-once across failures*: a client
//! that retries every command through a `kill -9` of its gateway node
//! and a forced reconnect must end with each `(client_id, req_id)`
//! applied exactly once — checked at store level by counting decided
//! commands against a load-free baseline of the same seeded cluster.
//! The in-process scripted load checks the same invariant structurally
//! (a double acknowledgement panics) under both round models, and its
//! ack-round histograms are the client-observed face of Theorem 5.2:
//! `A1`/`RS` acks at round 1 failure-free, any `RWS` algorithm at
//! `t + 1`.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ssp::algos::{CtRounds, A1};
use ssp::engine::{EngineConfig, ShardedConfig};
use ssp::gateway::{run_inproc_load, run_load, InprocLoadConfig, LoadConfig, LoadMode};
use ssp::rounds::RoundModel;

/// Finds a span of `n` consecutive free loopback ports starting the
/// scan at `from` (tests scan disjoint ranges so concurrent tests
/// don't race each other for the same span).
fn free_port_span(from: u16, n: u16) -> u16 {
    let mut base = from;
    while base < 60_000 {
        if (0..n).all(|i| TcpListener::bind(("127.0.0.1", base + i)).is_ok()) {
            return base;
        }
        base += 7;
    }
    panic!("no free port span of {n} above {from}");
}

/// Blocks until something accepts TCP connections on `addr`.
fn wait_for_listener(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while TcpStream::connect(addr).is_err() {
        assert!(Instant::now() < deadline, "nothing listens on {addr}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn gateway_targets(base: u16, n: u16) -> Vec<String> {
    (0..n).map(|i| format!("127.0.0.1:{}", base + i)).collect()
}

/// Spawns `ssp serve-cluster` with a gateway on `base_port` and
/// returns the child; stdout is piped for the gateway-counter line.
fn spawn_cluster(args: &[&str]) -> std::process::Child {
    Command::new(env!("CARGO_BIN_EXE_ssp"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve-cluster")
}

/// Waits for the cluster child, asserting clean exit, and returns its
/// stdout.
fn finish_cluster(mut child: std::process::Child) -> String {
    let status = child.wait().expect("serve-cluster wait");
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout)
        .expect("read cluster stdout");
    let mut stderr = String::new();
    if let Some(mut e) = child.stderr.take() {
        let _ = e.read_to_string(&mut stderr);
    }
    assert!(
        status.success(),
        "serve-cluster failed (audits?)\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    stdout
}

/// Extracts `(admitted, deduped)` from the merged human-side gateway
/// counter line: `gateway: A admitted, D deduped, ...`.
fn gateway_counters(stdout: &str) -> (u64, u64) {
    let line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("gateway:"))
        .unwrap_or_else(|| panic!("no gateway counter line in:\n{stdout}"));
    let words: Vec<&str> = line.split_whitespace().collect();
    let admitted = words[1].parse().expect("admitted count");
    let deduped = words[3].parse().expect("deduped count");
    (admitted, deduped)
}

/// Pulls one `"field":value` integer out of a stats JSON blob.
fn json_u64(json: &str, field: &str) -> u64 {
    let needle = format!("\"{field}\":");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("no {field} in {json}"));
    json[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer field")
}

/// The in-process scripted load acks every request exactly once under
/// both round models (a double ack panics inside the source), and the
/// single-key ack-round histograms show the paper's Theorem 5.2 gap as
/// a client-observed number: p50 of 1 round under `A1`/`RS` vs `t + 1
/// = 2` under `CtRounds`/`RWS` — a deterministic 2.0× ratio.
#[test]
fn inproc_load_is_exactly_once_and_shows_the_theorem_5_2_gap() {
    let mut load = InprocLoadConfig::new(7);
    load.clients = 3;
    load.requests_per_client = 6;
    load.cross_rate = 0.25;

    let mut rs = EngineConfig::new(3, 1, RoundModel::Rs);
    rs.instances = 64;
    rs.seed = 7;
    let rs_report = run_inproc_load(&A1, &ShardedConfig::new(rs, 2), &load).expect("rs run");
    assert_eq!(rs_report.acked, rs_report.requested);
    assert_eq!(
        rs_report.single.rounds.quantile(0.5),
        1,
        "A1/RS acks at round 1"
    );

    let mut rws = EngineConfig::new(3, 1, RoundModel::Rws);
    rws.instances = 64;
    rws.seed = 7;
    let rws_report =
        run_inproc_load(&CtRounds, &ShardedConfig::new(rws, 2), &load).expect("rws run");
    assert_eq!(rws_report.acked, rws_report.requested);
    assert_eq!(
        rws_report.single.rounds.quantile(0.5),
        2,
        "CtRounds/RWS acks at round t + 1 = 2"
    );
}

/// Two runs of the same seeded in-process load are byte-identical:
/// the client-observed report *and* the engine's deterministic stats
/// core, under both models.
#[test]
fn inproc_load_double_run_is_byte_identical() {
    for (model, name) in [(RoundModel::Rs, "rs"), (RoundModel::Rws, "rws")] {
        let mut load = InprocLoadConfig::new(13);
        load.clients = 2;
        load.requests_per_client = 5;
        load.cross_rate = 0.3;
        let run = || {
            let mut engine = EngineConfig::new(3, 1, model);
            engine.instances = 48;
            engine.seed = 13;
            let cfg = ShardedConfig::new(engine, 2);
            match model {
                RoundModel::Rs => run_inproc_load(&A1, &cfg, &load).expect("run"),
                RoundModel::Rws => run_inproc_load(&CtRounds, &cfg, &load).expect("run"),
            }
        };
        let (a, b) = (run(), run());
        assert_eq!(a.to_json(), b.to_json(), "{name}: client report diverged");
        assert_eq!(
            a.stats.to_json(),
            b.stats.to_json(),
            "{name}: deterministic stats core diverged"
        );
    }
}

/// Failure-free network end-to-end: a closed-loop `ssp load` client
/// population against a live gateway-fronted loopback cluster acks
/// every request, the cluster audits clean, and — because load
/// keys/values are pure functions of `(seed, client, req)` and command
/// totals are arrival-order independent — two runs of the same seeds
/// produce byte-identical deterministic stats cores even though
/// admission timing differs.
#[test]
fn network_load_double_run_has_byte_identical_cores() {
    let dir = std::env::temp_dir().join(format!("ssp-gw-dr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut cores = Vec::new();
    for run in 0..2u16 {
        let base = free_port_span(21_000 + run * 400, 3);
        let base_s = base.to_string();
        let stats = dir.join(format!("stats-{run}.json"));
        let child = spawn_cluster(&[
            "serve-cluster",
            "-n",
            "3",
            "--instances",
            "50",
            "--gap-ms",
            "20",
            "--fd-timeout-ms",
            "2500",
            "--drain",
            "120",
            "--seed",
            "11",
            "--gateway-base-port",
            &base_s,
            "--stats-out",
            stats.to_str().unwrap(),
        ]);
        // Through the CLI, which exits non-zero unless every request
        // is acked before its deadline.
        let load = Command::new(env!("CARGO_BIN_EXE_ssp"))
            .args(["load", "--targets", &gateway_targets(base, 3).join(",")])
            .args(["--concurrency", "2", "--requests", "8", "--seed", "9"])
            .args(["--deadline-ms", "30000"])
            .output()
            .expect("run ssp load");
        let report = String::from_utf8_lossy(&load.stdout);
        assert!(
            load.status.success(),
            "ssp load failed: {report}\n{}",
            String::from_utf8_lossy(&load.stderr)
        );
        assert_eq!(
            json_u64(&report, "acked"),
            8,
            "all requests acked: {report}"
        );
        assert_eq!(json_u64(&report, "gave_up"), 0);
        let stdout = finish_cluster(child);
        let (admitted, _) = gateway_counters(&stdout);
        assert_eq!(admitted, 8, "each request admitted exactly once\n{stdout}");
        cores.push(std::fs::read_to_string(&stats).expect("stats file"));
    }
    assert_eq!(
        cores[0], cores[1],
        "deterministic cores diverged across runs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance scenario: `kill -9` of the accepting gateway node
/// mid-load. Every client rides through a forced reconnect with
/// idempotent resubmission, and each `(client_id, req_id)` is applied
/// exactly once — checked at store level by comparing decided-command
/// counts against a load-free baseline of the identical seeded
/// cluster: the loaded run decides exactly `requests` more commands.
/// The outage costs only the detector: a survivor holds a client's
/// submission until it suspects the dead node instead of pointing the
/// client back at it, so no client is redirected more than once.
#[test]
fn kill9_of_the_gateway_node_applies_each_request_exactly_once() {
    let dir = std::env::temp_dir().join(format!("ssp-gw-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let cluster_args = |base_s: &str, stats: &str| {
        vec![
            "serve-cluster".to_string(),
            "-n".into(),
            "3".into(),
            "--instances".into(),
            "80".into(),
            "--gap-ms".into(),
            "25".into(),
            "--fd-timeout-ms".into(),
            "1500".into(),
            "--drain".into(),
            "120".into(),
            "--seed".into(),
            "5".into(),
            "--kill9".into(),
            "0".into(),
            "--kill-at".into(),
            "2".into(),
            "--gateway-base-port".into(),
            base_s.into(),
            "--stats-out".into(),
            stats.into(),
        ]
    };

    // Baseline: same cluster, same kill, no external load.
    let base0 = free_port_span(22_000, 3);
    let stats0 = dir.join("baseline.json");
    let args0 = cluster_args(&base0.to_string(), stats0.to_str().unwrap());
    let child = spawn_cluster(&args0.iter().map(String::as_str).collect::<Vec<_>>());
    finish_cluster(child);
    let baseline = json_u64(
        &std::fs::read_to_string(&stats0).expect("baseline stats"),
        "commands_decided",
    );

    // Loaded run: clients start on node 0 (the accepting node), which
    // is kill -9'd mid-load, forcing reconnect + resubmission. Node 0
    // dies after instance 2, and a client acks at most one request per
    // instance, so most of the 12 requests straddle the kill. The load
    // starts once node 0's gateway listens, so no client is bounced
    // before the kill.
    let base1 = free_port_span(22_400, 3);
    let stats1 = dir.join("loaded.json");
    let args1 = cluster_args(&base1.to_string(), stats1.to_str().unwrap());
    let child = spawn_cluster(&args1.iter().map(String::as_str).collect::<Vec<_>>());
    wait_for_listener(&gateway_targets(base1, 1)[0]);
    let clients = 2;
    let mut cfg = LoadConfig::new(gateway_targets(base1, 3), 9);
    cfg.requests = 12;
    cfg.mode = LoadMode::Closed {
        concurrency: clients,
    };
    cfg.deadline = Duration::from_secs(30);
    let report = run_load(&cfg).expect("load run");
    assert_eq!(
        report.acked,
        12,
        "every request acked: {}",
        report.to_json()
    );
    assert_eq!(report.gave_up, 0);
    assert!(
        report.client.redirects <= clients as u64,
        "at most one redirect per client: {}",
        report.to_json()
    );
    let stdout = finish_cluster(child);
    assert!(
        stdout.contains("0 violations, 0 divergences"),
        "the survivors audit clean:\n{stdout}"
    );
    assert!(
        stdout.contains("suspected: p0 (crashed in instance"),
        "the killed node is reported as crashed:\n{stdout}"
    );

    // Store-level exactly-once: precisely `requests` external commands
    // were decided, no matter how many resubmissions the kill caused.
    let loaded = json_u64(
        &std::fs::read_to_string(&stats1).expect("loaded stats"),
        "commands_decided",
    );
    assert_eq!(
        loaded,
        baseline + 12,
        "loaded cluster must decide exactly one command per request\n{stdout}"
    );
    let (admitted, _deduped) = gateway_counters(&stdout);
    assert!(
        admitted >= 12,
        "every request admitted at least once (a dying node may admit one twice, \
         the ledger dedups the rest): {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
