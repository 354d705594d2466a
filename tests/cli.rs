//! End-to-end tests of the `ssp` CLI binary.

use std::process::Command;

fn ssp(args: &[&str]) -> (bool, String, String) {
    let exe = env!("CARGO_BIN_EXE_ssp");
    let out = Command::new(exe).args(args).output().expect("spawn ssp");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Every value of the integer field `field` in a stats JSON, in
/// document order.
fn json_values(json: &str, field: &str) -> Vec<u64> {
    let key = format!("\"{field}\":");
    json.match_indices(&key)
        .map(|(at, _)| {
            let digits: String = json[at + key.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().expect("integer field")
        })
        .collect()
}

/// Runs `ssp serve <args> --stats-out FILE` and returns the stats JSON.
fn serve_stats(args: &[&str], name: &str) -> String {
    let path = std::env::temp_dir().join(format!("ssp-cli-{}-{name}.json", std::process::id()));
    let mut full = vec!["serve"];
    full.extend_from_slice(args);
    full.extend(["--stats-out", path.to_str().unwrap()]);
    let (ok, _, stderr) = ssp(&full);
    assert!(ok, "{args:?}: {stderr}");
    let json = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    json
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = ssp(&["help"]);
    assert!(ok);
    assert!(stdout.contains("usage: ssp"));
    assert!(stdout.contains("refute-sdd"));
}

#[test]
fn no_args_prints_usage() {
    let (ok, stdout, _) = ssp(&[]);
    assert!(ok);
    assert!(stdout.contains("usage: ssp"));
}

#[test]
fn unknown_command_fails_with_message() {
    let (ok, _, stderr) = ssp(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn verify_reports_ok_for_a1_in_rs() {
    let (ok, stdout, _) = ssp(&["verify", "a1", "rs", "-n", "3", "-t", "1"]);
    assert!(ok);
    assert!(stdout.contains("OK over"), "{stdout}");
}

#[test]
fn verify_reports_violation_for_a1_in_rws() {
    let (ok, stdout, _) = ssp(&["verify", "a1", "rws", "-n", "3", "-t", "1"]);
    assert!(ok, "a violation is a finding, not a CLI failure");
    assert!(stdout.contains("VIOLATION"), "{stdout}");
    assert!(stdout.contains("uniform agreement"), "{stdout}");
}

/// `A1` is the `t = 1` algorithm: every entry point that would spawn
/// it with another `t` answers with a usage error (exit 1), not the
/// spawn-time panic (exit 101).
#[test]
fn a1_with_t_other_than_one_is_a_usage_error_not_a_panic() {
    for args in [
        &["verify", "a1", "rs", "-n", "4", "-t", "2"][..],
        &["sample", "a1", "rs", "--trials", "10"],
        &[
            "runtime-fuzz",
            "a1",
            "rws",
            "-n",
            "4",
            "-t",
            "2",
            "--seed-range",
            "0..2",
        ],
        &["trace-dump", "a1", "rws", "-n", "4", "-t", "2"],
        &[
            "serve",
            "a1",
            "rs",
            "-n",
            "4",
            "-t",
            "2",
            "--instances",
            "2",
        ],
        &["load", "--inproc", "a1", "rs", "-n", "4", "-t", "2"],
        &["explore", "a1", "rws", "--n", "4", "--t", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ssp"))
            .args(args)
            .output()
            .expect("spawn ssp");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("error: A1 tolerates exactly one crash: needs t = 1, got t = 2"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// One group spends its instance budget while it still holds a
/// cross-shard client's work, and the group with budget left has
/// nothing queued: the run stops with the unacked count instead of
/// ticking forever.
#[test]
fn load_inproc_stops_when_a_group_runs_out_of_budget() {
    let started = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_ssp"))
        .args([
            "load",
            "--inproc",
            "a1",
            "rs",
            "--shards",
            "2",
            "--clients",
            "2",
        ])
        .args(["--requests-per-client", "200", "--cross-rate", "0.1"])
        .output()
        .expect("spawn ssp");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "took {:?}",
        started.elapsed()
    );
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("of 400 requests acked"), "{stderr}");
}

#[test]
fn latency_emits_the_table() {
    let (ok, stdout, _) = ssp(&["latency", "-n", "3", "-t", "1"]);
    assert!(ok);
    for name in ["FloodSet", "C_OptFloodSet", "F_OptFloodSet", "A1"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn refute_sdd_tells_the_story() {
    let (ok, stdout, _) = ssp(&["refute-sdd"]);
    assert!(ok);
    assert!(stdout.contains("Validity violated"), "{stdout}");
}

#[test]
fn emulation_budget_table() {
    let (ok, stdout, _) = ssp(&[
        "emulation",
        "-n",
        "3",
        "--phi",
        "1",
        "--delta",
        "1",
        "-r",
        "3",
    ]);
    assert!(ok);
    assert!(stdout.contains("56"), "K_3 = 56 expected in:\n{stdout}");
}

#[test]
fn heartbeat_classifies_as_perfect() {
    let (ok, stdout, _) = ssp(&["heartbeat", "-n", "3"]);
    assert!(ok);
    assert!(stdout.contains("P=true"), "{stdout}");
}

#[test]
fn commit_reports_rates() {
    let (ok, stdout, _) = ssp(&["commit", "--trials", "200"]);
    assert!(ok);
    assert!(stdout.contains("RS  (SS side):"), "{stdout}");
    assert!(stdout.contains("gap runs"), "{stdout}");
}

#[test]
fn runtime_fuzz_sweeps_and_reports_conformance() {
    let (ok, stdout, _) = ssp(&["runtime-fuzz", "floodset", "rs", "--seed-range", "0..4"]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("4 seeded runs on the virtual clock"),
        "{stdout}"
    );
    assert!(stdout.contains("spec violations: none"), "{stdout}");
    assert!(
        stdout.contains("replayed tick-for-tick"),
        "conformance line expected in:\n{stdout}"
    );
}

#[test]
fn runtime_fuzz_reproduces_the_section_5_3_violation_from_its_seed() {
    let (ok, stdout, _) = ssp(&["runtime-fuzz", "a1", "rws", "--seed-range", "519..520"]);
    assert!(ok, "a spec violation is a finding, not a CLI failure");
    assert!(stdout.contains("spec violations: 1"), "{stdout}");
    assert!(stdout.contains("seed 519"), "{stdout}");
    assert!(stdout.contains("uniform agreement violated"), "{stdout}");
    assert!(
        stdout.contains("checker sweeping the same space agrees: true"),
        "{stdout}"
    );
    // Chaos is masked by the reliable layer: the anomaly survives it.
    let (ok, stdout, _) = ssp(&[
        "runtime-fuzz",
        "a1",
        "rws",
        "--seed-range",
        "519..520",
        "--chaos",
        "--loss",
        "0.3",
        "--dup",
        "0.1",
    ]);
    assert!(ok, "a spec violation is a finding, not a CLI failure");
    assert!(stdout.contains("spec violations: 1"), "{stdout}");
}

#[test]
fn runtime_fuzz_backend_flag_selects_the_clock() {
    let (ok, stdout, stderr) = ssp(&[
        "runtime-fuzz",
        "floodset",
        "rs",
        "--seed-range",
        "0..2",
        "--backend",
        "real",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("2 seeded runs on the real clock"),
        "{stdout}"
    );
}

#[test]
fn unknown_backend_is_rejected_with_the_expected_names() {
    let (ok, _, stderr) = ssp(&[
        "runtime-fuzz",
        "floodset",
        "rs",
        "--seed-range",
        "0..1",
        "--backend",
        "wall",
    ]);
    assert!(!ok);
    assert!(stderr.contains("expected virtual|real"), "{stderr}");
}

#[test]
fn trace_dump_is_backend_invariant() {
    let dir = std::env::temp_dir();
    let v = dir.join("ssp-cli-backend-v.jsonl");
    let r = dir.join("ssp-cli-backend-r.jsonl");
    let (v_s, r_s) = (v.to_str().unwrap(), r.to_str().unwrap());
    let (ok, _, stderr) = ssp(&[
        "trace-dump",
        "a1",
        "rws",
        "--seed",
        "519",
        "--backend",
        "virtual",
        "--out",
        v_s,
    ]);
    assert!(ok, "{stderr}");
    let (ok, _, stderr) = ssp(&[
        "trace-dump",
        "a1",
        "rws",
        "--seed",
        "519",
        "--backend",
        "real",
        "--out",
        r_s,
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(
        std::fs::read_to_string(&v).unwrap(),
        std::fs::read_to_string(&r).unwrap(),
        "the §5.3 run log is byte-identical across clock backends"
    );
    assert_eq!(
        std::fs::read_to_string(&v).unwrap(),
        include_str!("golden/seed519_a1_rws.jsonl"),
        "the CLI dump is the pinned §5.3 run log"
    );
    for p in [v, r] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn runtime_fuzz_rejects_a_malformed_seed_range() {
    let (ok, _, stderr) = ssp(&["runtime-fuzz", "--seed-range", "9..3"]);
    assert!(!ok);
    assert!(stderr.contains("seed-range"), "{stderr}");
}

/// A flag the subcommand does not read is an error naming the flag,
/// followed by that subcommand's usage — never a silent default.
#[test]
fn an_unknown_flag_is_rejected_with_the_subcommand_usage() {
    for (args, flag, usage) in [
        (
            &["verify", "a1", "rs", "--tt", "2"][..],
            "--tt",
            "usage: ssp verify",
        ),
        (
            &["runtime-fuzz", "--seed-rang", "0..2"],
            "--seed-rang",
            "usage: ssp runtime-fuzz",
        ),
        (
            &["serve", "a1", "rs", "--node", "0", "--shards", "2"],
            "--shards",
            "usage: ssp serve a1 rs --node",
        ),
        (
            &["serve-cluster", "--epoch", "2"],
            "--epoch",
            "usage: ssp serve-cluster",
        ),
        (
            &["latency", "--threads", "2"],
            "--threads",
            "usage: ssp latency",
        ),
    ] {
        let (ok, stdout, stderr) = ssp(args);
        assert!(!ok, "{args:?} must fail");
        assert!(stdout.is_empty(), "{args:?} must not run: {stdout}");
        let mut lines = stderr.lines();
        let first = lines.next().unwrap_or_default();
        assert!(
            first.starts_with(&format!("error: unknown flag {flag} for")),
            "{stderr}"
        );
        assert!(
            lines.next().unwrap_or_default().starts_with(usage),
            "{stderr}"
        );
    }
    // The same flags spelled right are accepted.
    let (ok, stdout, _) = ssp(&["verify", "a1", "rs", "-t", "1", "--threads", "1"]);
    assert!(ok && stdout.contains("OK over"), "{stdout}");
}

#[test]
fn bad_flag_value_fails() {
    let (ok, _, stderr) = ssp(&["latency", "-n", "lots"]);
    assert!(!ok);
    assert!(stderr.contains("bad number"));
    // An undersized drain is a typed config error, not a hang.
    let (ok, _, stderr) = ssp(&["serve", "a1", "rs", "--instances", "2", "--drain", "1"]);
    assert!(!ok);
    assert!(stderr.contains("drain"), "{stderr}");
}

#[test]
fn runtime_fuzz_chaos_sweep_stays_conformant() {
    let (ok, stdout, stderr) = ssp(&[
        "runtime-fuzz",
        "floodset",
        "rs",
        "--chaos",
        "--loss",
        "0.3",
        "--dup",
        "0.1",
        "--seed-range",
        "0..8",
        "--validity",
        "strong",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("chaos: loss 300‰, dup 100‰"), "{stdout}");
    assert!(stdout.contains("spec violations: none"), "{stdout}");
    assert!(
        stdout.contains("every trace admissible and replayed tick-for-tick"),
        "{stdout}"
    );
}

#[test]
fn delta_violation_flags_then_degrades_from_the_cli() {
    // Degradation off: the Δ break smuggles §5.3 into "RS" and the
    // watchdog flags it.
    let (ok, stdout, stderr) = ssp(&["runtime-fuzz", "--delta-violation"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("verdict: SynchronyViolation"), "{stdout}");
    assert!(stdout.contains("uniform agreement"), "{stdout}");

    // Same seed with --degrade=rws: certified as an admissible RWS run.
    let (ok, stdout, stderr) = ssp(&["runtime-fuzz", "--delta-violation", "--degrade=rws"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("degraded at"), "{stdout}");
    assert!(stdout.contains("admissible RWS run"), "{stdout}");

    // Same seed with --degrade=abort: stopped undecided.
    let (ok, stdout, stderr) = ssp(&["runtime-fuzz", "--delta-violation", "--degrade=abort"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("verdict: aborted"), "{stdout}");
}

#[test]
fn chaos_rate_out_of_range_fails() {
    let (ok, _, stderr) = ssp(&["runtime-fuzz", "--chaos", "--loss", "1.5"]);
    assert!(!ok);
    assert!(stderr.contains("loss"), "{stderr}");
}

#[test]
fn shard_count_zero_is_rejected() {
    let (ok, _, stderr) = ssp(&["serve", "a1", "rs", "--shards", "0"]);
    assert!(!ok);
    assert!(
        stderr.contains("shard count must be at least 1"),
        "{stderr}"
    );
}

#[test]
fn cross_shard_rate_without_shards_is_rejected() {
    // An explicit rate on the default single-group service is a typed
    // configuration error, even when the rate itself is in range.
    let (ok, _, stderr) = ssp(&["serve", "a1", "rs", "--cross-shard-rate", "0.2"]);
    assert!(!ok);
    assert!(stderr.contains("--shards ≥ 2"), "{stderr}");

    let (ok, _, stderr) = ssp(&[
        "serve",
        "a1",
        "rs",
        "--shards",
        "1",
        "--cross-shard-rate",
        "0.3",
    ]);
    assert!(!ok);
    assert!(stderr.contains("single-group service"), "{stderr}");
}

#[test]
fn cross_shard_rate_out_of_range_is_rejected() {
    let (ok, _, stderr) = ssp(&[
        "serve",
        "a1",
        "rs",
        "--shards",
        "4",
        "--cross-shard-rate",
        "1.5",
    ]);
    assert!(!ok);
    assert!(stderr.contains("not a probability"), "{stderr}");
}

#[test]
fn sharded_serve_reports_groups_and_cross_shard_commits() {
    let (ok, stdout, stderr) = ssp(&[
        "serve",
        "a1",
        "rs",
        "--shards",
        "2",
        "--cross-shard-rate",
        "0.5",
        "--clients",
        "4",
        "--instances",
        "6",
        "--seed",
        "42",
        "--failure-free",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("shard groups"), "{stdout}");
    assert!(stdout.contains("cross-shard:"), "{stdout}");
    assert!(stdout.contains("0 NBAC violations"), "{stdout}");

    // A scripted crash stays local to its group, and audits stay clean.
    let stats = serve_stats(
        &[
            "a1",
            "rs",
            "--shards",
            "4",
            "--cross-shard-rate",
            "0.1",
            "--clients",
            "8",
            "--instances",
            "10",
            "--seed",
            "7",
            "--failure-free",
            "--crash-group",
            "2",
            "--crash-instance",
            "1",
            "--crash-process",
            "0",
            "--crash-round",
            "1",
        ],
        "shard-crash",
    );
    let (aggregate, groups) = stats.split_once("\"groups\":").unwrap();
    assert_eq!(json_values(groups, "crashed_instances"), [0, 0, 1, 0]);
    assert_eq!(json_values(aggregate, "undecided_instances"), [0]);
    assert_eq!(json_values(aggregate, "audit_violations"), [0]);
    assert_eq!(json_values(aggregate, "nbac_violations"), [0]);
}

#[test]
fn serve_under_loss_is_audit_clean_and_byte_identical_per_seed() {
    let plain = ["--clients", "16", "--instances", "50"];
    let sharded = [
        "--shards",
        "4",
        "--cross-shard-rate",
        "0.1",
        "--clients",
        "16",
        "--instances",
        "30",
    ];
    for (algo, model) in [("a1", "rs"), ("ct", "rws")] {
        for shape in [&plain[..], &sharded[..]] {
            let mut args = vec![algo, model];
            args.extend_from_slice(shape);
            args.extend(["--seed", "2026", "--loss", "0.2"]);
            let first = serve_stats(&args, "loss-a");
            assert_eq!(
                first,
                serve_stats(&args, "loss-b"),
                "same seed twice is byte-identical: {args:?}"
            );
            let audits = json_values(&first, "audit_violations");
            assert!(
                !audits.is_empty() && audits.iter().all(|&v| v == 0),
                "{args:?}: {first}"
            );
            if shape == sharded {
                assert_eq!(json_values(&first, "nbac_violations"), [0], "{args:?}");
            }
        }
    }
}

#[test]
fn load_rejects_open_and_closed_loop_together() {
    let (ok, _, stderr) = ssp(&[
        "load",
        "--targets",
        "127.0.0.1:1",
        "--rate",
        "50",
        "--concurrency",
        "2",
    ]);
    assert!(!ok);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
}

#[test]
fn load_rejects_a_non_numeric_rate() {
    let (ok, _, stderr) = ssp(&["load", "--targets", "127.0.0.1:1", "--rate", "abc"]);
    assert!(!ok);
    assert!(stderr.contains("rate"), "{stderr}");
}

#[test]
fn load_rejects_a_non_positive_rate() {
    for bad in ["0", "-3"] {
        let (ok, _, stderr) = ssp(&["load", "--targets", "127.0.0.1:1", "--rate", bad]);
        assert!(!ok, "--rate {bad} must be rejected");
        assert!(
            stderr.contains("--rate must be a positive number"),
            "--rate {bad}: {stderr}"
        );
    }
}

#[test]
fn load_rejects_zero_concurrency() {
    let (ok, _, stderr) = ssp(&["load", "--targets", "127.0.0.1:1", "--concurrency", "0"]);
    assert!(!ok);
    assert!(
        stderr.contains("--concurrency must be at least 1"),
        "{stderr}"
    );
}

#[test]
fn load_without_targets_prints_usage() {
    let (ok, _, stderr) = ssp(&["load"]);
    assert!(!ok);
    assert!(stderr.contains("usage: ssp load"), "{stderr}");
}

#[test]
fn load_inproc_rejects_cross_rate_without_enough_shards() {
    let (ok, _, stderr) = ssp(&["load", "--inproc", "a1", "rs", "--cross-rate", "0.5"]);
    assert!(!ok);
    assert!(stderr.contains("--cross-rate needs --shards"), "{stderr}");
}

#[test]
fn load_inproc_reports_the_client_observed_round_gap() {
    let (ok, rs_out, stderr) = ssp(&[
        "load",
        "--inproc",
        "a1",
        "rs",
        "--clients",
        "2",
        "--requests-per-client",
        "4",
    ]);
    assert!(ok, "{stderr}");
    assert!(rs_out.contains("\"p50_rounds\":1"), "{rs_out}");
    let (ok, rws_out, stderr) = ssp(&[
        "load",
        "--inproc",
        "ct",
        "rws",
        "--clients",
        "2",
        "--requests-per-client",
        "4",
    ]);
    assert!(ok, "{stderr}");
    assert!(rws_out.contains("\"p50_rounds\":2"), "{rws_out}");
    // Sharded, with cross-shard traffic: the gap holds and each report
    // is byte-identical per seed.
    let sharded = |algo: &str, model: &str| {
        let (ok, out, stderr) = ssp(&[
            "load",
            "--inproc",
            algo,
            model,
            "--shards",
            "2",
            "--cross-rate",
            "0.2",
            "--clients",
            "4",
            "--requests-per-client",
            "8",
            "--seed",
            "7",
        ]);
        assert!(ok, "{stderr}");
        out
    };
    let rs_out = sharded("a1", "rs");
    assert_eq!(rs_out, sharded("a1", "rs"), "same seed, same report");
    assert!(rs_out.contains("\"p50_rounds\":1"), "{rs_out}");
    let rws_out = sharded("ct", "rws");
    assert!(rws_out.contains("\"p50_rounds\":2"), "{rws_out}");
}

/// Exhaustive exploration through the CLI: FloodSet at n=3, t=1 in
/// both models visits every class once with no runtime divergence, the
/// explorer rediscovers the §5.3 violation of `A1` with its
/// two-withhold witness from first principles, and the same
/// exploration twice is byte-identical.
#[test]
fn explore_sweeps_both_models_rediscovers_section_5_3_and_reruns_identically() {
    let flood = |model| {
        [
            "explore", "--algo", "flood", "--model", model, "--n", "3", "--t", "1",
        ]
    };
    let mut rws_out = String::new();
    for model in ["rs", "rws"] {
        let (ok, stdout, stderr) = ssp(&flood(model));
        assert!(ok, "{model}: {stderr}");
        assert!(stdout.contains("0 duplicates"), "{model}: {stdout}");
        assert!(stdout.contains("0 divergences"), "{model}: {stdout}");
        rws_out = stdout;
    }
    assert_eq!(ssp(&flood("rws")).1, rws_out, "rerun diverged");

    let a1 = ["explore", "a1", "rws", "--inputs", "10,11,12"];
    let (ok, stdout, stderr) = ssp(&a1);
    assert!(ok, "a violation is a finding, not a CLI failure: {stderr}");
    assert!(stdout.contains("uniform agreement violated"), "{stdout}");
    assert!(
        stdout.contains("withhold(p1→p2@r1) withhold(p1→p3@r1)"),
        "{stdout}"
    );
    assert_eq!(ssp(&a1).1, stdout, "rerun diverged");
}
