//! `ssp` — command-line front end to the reproduction.
//!
//! ```text
//! ssp latency   [-n N] [-t T]                      lat/Lat/Λ table (§5.2)
//! ssp verify    <algo> <rs|rws> [-n N] [-t T] [--threads K] [--sym off|values|full]
//! ssp sample    <algo> <rs|rws> [-n N] [-t T] [--trials K] [--seed S]
//! ssp refute-sdd [--patience K]                    Theorem 3.1, mechanized
//! ssp commit    [--trials K] [--crash-prob P]      §3 commit-rate gap
//! ssp heartbeat [-n N] [--phi F] [--delta D]       timeouts implement P
//! ssp emulation [-n N] [--phi F] [--delta D] [-r R] §4.1 step budgets
//! ssp runtime-fuzz [<algo> <rs|rws>] [--seed-range A..B] [-n N] [-t T] [--backend virtual|real]
//! ssp trace-dump [<algo> <rs|rws>] [--seed S] [--backend virtual|real] [--out F] | --diff F1 F2
//! ssp serve     <algo> [rs|rws] [--clients K] [--instances I] [--seed S] [--backend virtual|real] [--chaos ...]
//! ssp serve     a1 rs --node I --listen ADDR --peers A0,A1,.. [--report F] [--fd-timeout-ms MS] [--delta-ms MS]
//! ssp serve-cluster [-n N] [--instances I] [--seed S] [--kill9 NODE] [--kill-at K] [--proxy-delay-ms MS] [--degrade M]
//! ssp explore   [<algo> <rs|rws>] [--n N] [--t T] [--inputs v1,v2,..] [--sym off|full] [--limit K]
//! ```
//!
//! Algorithms: `floodset`, `floodset-ws`, `c-opt`, `c-opt-ws`, `f-opt`,
//! `f-opt-ws`, `a1`, `ct`, `early`, `early-ws`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use ssp::algos::{
    COptFloodSet, COptFloodSetWs, CtRounds, EarlyDeciding, EarlyDecidingWs, FOptFloodSet,
    FOptFloodSetWs, FloodSet, FloodSetWs, A1,
};
use ssp::commit::{commit_rate_experiment, CommitWorkload};
use ssp::engine::{
    rate_pm, run_cluster, serve, serve_node_to_file, serve_node_with, serve_sharded, ClusterConfig,
    EngineConfig, EngineCrash, FaultMode, GatewayNodeConfig, GatewaySpec, KillSpec, NodeConfig,
    ShardedConfig, Workload, WorkloadConfig,
};
use ssp::explore::Explorer;
use ssp::fd::classify;
use ssp::gateway::{run_inproc_load, run_load, InprocLoadConfig, LoadConfig, LoadMode};
use ssp::lab::impossibility::candidates::{PatientWait, WaitOrSuspect};
use ssp::lab::report::Table;
use ssp::lab::{
    check_threaded_run, fuzz_runtime, refute, run_heartbeat_experiment, LatencyAggregator,
    RoundModel, RunVerdict, Symmetry, ValidityMode, Verification, Verifier,
};
use ssp::model::{InitialConfig, RunLog};
use ssp::rounds::{cumulative_round_budget, RoundAlgorithm};
use ssp::runtime::{
    Backend, ChaosConfig, ConfigError, DegradeMode, FaultPlan, RuntimeBuilder, SocketFaults,
    ThreadCrash, SECTION_5_3_SEED,
};

/// Flags that take no value: their presence means `true`.
const BOOLEAN_FLAGS: &[&str] = &["chaos", "delta-violation", "failure-free", "inproc"];

/// Minimal flag parser: `--key value` / `--key=value` / `-k value`
/// pairs after the positional arguments, plus valueless boolean flags
/// ([`BOOLEAN_FLAGS`]).
#[derive(Debug, Default)]
struct Flags {
    positional: Vec<String>,
    pairs: Vec<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if let Some(key) = arg.strip_prefix('-') {
            let key = key.strip_prefix('-').unwrap_or(key);
            if let Some((key, value)) = key.split_once('=') {
                flags.pairs.push((key.to_string(), value.to_string()));
            } else if BOOLEAN_FLAGS.contains(&key) {
                flags.pairs.push((key.to_string(), "true".to_string()));
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                flags.pairs.push((key.to_string(), value.clone()));
            }
        } else {
            flags.positional.push(arg.clone());
        }
    }
    Ok(flags)
}

impl Flags {
    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number {v:?}")),
        }
    }

    fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number {v:?}")),
        }
    }

    fn f64_or(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number {v:?}")),
        }
    }

    fn is_set(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// A probability flag, converted to the chaos plane's per-mille
    /// integer rate.
    fn rate_pm_or(&self, key: &str, default_pm: u16) -> Result<u16, String> {
        match self.get(key) {
            None => Ok(default_pm),
            Some(v) => {
                let p: f64 = v.parse().map_err(|_| format!("--{key}: bad rate {v:?}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("--{key}: rate must be in 0..=1, got {v}"));
                }
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                Ok((p * 1000.0).round() as u16)
            }
        }
    }
}

/// Dispatches an algorithm name to a monomorphized callback.
macro_rules! with_algo {
    ($name:expr, $algo:ident => $body:expr) => {
        match $name {
            "floodset" => {
                let $algo = FloodSet;
                Ok($body)
            }
            "floodset-ws" => {
                let $algo = FloodSetWs;
                Ok($body)
            }
            "c-opt" => {
                let $algo = COptFloodSet;
                Ok($body)
            }
            "c-opt-ws" => {
                let $algo = COptFloodSetWs;
                Ok($body)
            }
            "f-opt" => {
                let $algo = FOptFloodSet;
                Ok($body)
            }
            "f-opt-ws" => {
                let $algo = FOptFloodSetWs;
                Ok($body)
            }
            "a1" => {
                let $algo = A1;
                Ok($body)
            }
            "ct" => {
                let $algo = CtRounds;
                Ok($body)
            }
            "early" => {
                let $algo = EarlyDeciding;
                Ok($body)
            }
            "early-ws" => {
                let $algo = EarlyDecidingWs;
                Ok($body)
            }
            other => Err(format!(
                "unknown algorithm {other:?} (try: floodset, floodset-ws, c-opt, c-opt-ws, f-opt, f-opt-ws, a1, ct, early, early-ws)"
            )),
        }
    };
}

/// Like [`with_algo!`] but only over the process-symmetric algorithms
/// (everything except `a1`, whose round-1/round-2 roles are hard-coded
/// to `p1`/`p2`), so the body may call `Verifier::symmetry`.
macro_rules! with_symmetric_algo {
    ($name:expr, $algo:ident => $body:expr) => {
        match $name {
            "floodset" => {
                let $algo = FloodSet;
                Ok($body)
            }
            "floodset-ws" => {
                let $algo = FloodSetWs;
                Ok($body)
            }
            "c-opt" => {
                let $algo = COptFloodSet;
                Ok($body)
            }
            "c-opt-ws" => {
                let $algo = COptFloodSetWs;
                Ok($body)
            }
            "f-opt" => {
                let $algo = FOptFloodSet;
                Ok($body)
            }
            "f-opt-ws" => {
                let $algo = FOptFloodSetWs;
                Ok($body)
            }
            "early" => {
                let $algo = EarlyDeciding;
                Ok($body)
            }
            "early-ws" => {
                let $algo = EarlyDecidingWs;
                Ok($body)
            }
            "a1" => Err(
                "a1 is not process-symmetric (p1/p2 play fixed roles); use --sym values or --sym off"
                    .to_string(),
            ),
            "ct" => Err(
                "ct is not process-symmetric (coordinators rotate by rank); use --sym values or --sym off"
                    .to_string(),
            ),
            other => Err(format!(
                "unknown algorithm {other:?} (try: floodset, floodset-ws, c-opt, c-opt-ws, f-opt, f-opt-ws, a1, ct, early, early-ws)"
            )),
        }
    };
}

fn cmd_latency(flags: &Flags) -> Result<(), String> {
    let n = flags.usize_or("n", 3)?;
    let t = flags.usize_or("t", 1)?;
    let mut table = Table::new(vec!["algorithm", "model", "runs", "lat", "Lat", "Λ"]);
    let fmt = |v: Option<u32>| v.map_or("-".into(), |x| x.to_string());
    // Symmetric algorithms sweep only canonical orbit representatives;
    // the orbit-weighted aggregator makes the table exact regardless.
    macro_rules! row {
        ($algo:expr, $model:expr, $reduce:ident $(, $arg:expr)?) => {{
            let v: Verification<u64> = base_verifier(&$algo, $model, n, t, 1)
                .$reduce($($arg)?)
                .collect_latency()
                .run();
            let agg = v.latency.expect("collect_latency was requested");
            table.row(vec![
                RoundAlgorithm::<u64>::name(&$algo).to_string(),
                $model.to_string(),
                agg.runs.to_string(),
                fmt(agg.lat()),
                fmt(agg.lat_max_over_configs()),
                fmt(agg.capital_lambda()),
            ]);
        }};
    }
    macro_rules! sym_row {
        ($algo:expr, $model:expr) => {
            row!($algo, $model, symmetry, Symmetry::Full)
        };
    }
    sym_row!(FloodSet, RoundModel::Rs);
    sym_row!(FloodSetWs, RoundModel::Rws);
    sym_row!(COptFloodSet, RoundModel::Rs);
    sym_row!(COptFloodSetWs, RoundModel::Rws);
    sym_row!(FOptFloodSet, RoundModel::Rs);
    sym_row!(FOptFloodSetWs, RoundModel::Rws);
    if t == 1 {
        // A1 is value- but not process-symmetric: values-only reduction.
        row!(A1, RoundModel::Rs, symmetry_values);
    }
    sym_row!(EarlyDeciding, RoundModel::Rs);
    sym_row!(EarlyDecidingWs, RoundModel::Rws);
    println!("{table}");
    Ok(())
}

/// The shared front half of an exhaustive CLI sweep.
fn base_verifier<A>(
    algo: &A,
    model: RoundModel,
    n: usize,
    t: usize,
    threads: usize,
) -> Verifier<'_, u64, A>
where
    A: RoundAlgorithm<u64> + Sync,
{
    Verifier::new(algo)
        .n(n)
        .t(t)
        .domain(BINARY)
        .mode(ValidityMode::Strong)
        .model(model)
        .threads(threads)
}

const BINARY: &[u64] = &[0, 1];

/// `A1`'s spawn preconditions (`t = 1`, `n ≥ 2`) as a usage error, for
/// every entry point that may spawn it — `A1`'s `spawn` panics instead.
fn check_a1_bounds(algo_name: &str, n: usize, t: usize) -> Result<(), String> {
    if algo_name == "a1" {
        A1::check(n, t).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn cmd_verify(flags: &Flags) -> Result<(), String> {
    let algo_name = flags.positional.get(1).ok_or(VERIFY_USAGE)?.as_str();
    let model_name = flags.positional.get(2).ok_or(VERIFY_USAGE)?.as_str();
    let model: RoundModel = model_name.parse()?;
    let n = flags.usize_or("n", 3)?;
    let t = flags.usize_or("t", 1)?;
    check_a1_bounds(algo_name, n, t)?;
    let threads = flags.usize_or("threads", 1)?;
    if threads == 0 {
        return Err("--threads: at least one worker required".to_string());
    }
    let verification: Verification<u64> = match flags.get("sym").unwrap_or("off") {
        "off" => with_algo!(algo_name, algo => {
            base_verifier(&algo, model, n, t, threads).run()
        })?,
        "values" => with_algo!(algo_name, algo => {
            base_verifier(&algo, model, n, t, threads).symmetry_values().run()
        })?,
        "full" => with_symmetric_algo!(algo_name, algo => {
            base_verifier(&algo, model, n, t, threads).symmetry(Symmetry::Full).run()
        })?,
        other => {
            return Err(format!(
                "--sym: unknown setting {other:?} (off, values or full)"
            ))
        }
    };
    match &verification.counterexample {
        None => {
            if verification.represented > verification.runs {
                println!(
                    "{algo_name} in {model_name}: OK over {} canonical runs representing {} \
                     (n={n}, t={t})",
                    verification.runs, verification.represented
                );
            } else {
                println!(
                    "{algo_name} in {model_name}: OK over {} exhaustively enumerated runs \
                     (n={n}, t={t})",
                    verification.runs
                );
            }
        }
        Some(cex) => {
            println!(
                "{algo_name} in {model_name}: VIOLATION after {} runs (n={n}, t={t})\n\n{cex}",
                verification.runs
            );
        }
    }
    Ok(())
}

fn cmd_sample(flags: &Flags) -> Result<(), String> {
    let algo_name = flags.positional.get(1).ok_or(SAMPLE_USAGE)?.as_str();
    let model_name = flags.positional.get(2).ok_or(SAMPLE_USAGE)?.as_str();
    let n = flags.usize_or("n", 5)?;
    let t = flags.usize_or("t", 2)?;
    check_a1_bounds(algo_name, n, t)?;
    let trials = flags.u64_or("trials", 5_000)?;
    let seed = flags.u64_or("seed", 42)?;
    let model: RoundModel = model_name.parse()?;
    let v: Verification<u64> = with_algo!(algo_name, algo => {
        Verifier::new(&algo)
            .n(n)
            .t(t)
            .domain(&[0u64, 1, 2])
            .mode(ValidityMode::Strong)
            .model(model)
            .sample(trials, seed)
            .run()
    })?;
    match &v.counterexample {
        None => println!(
            "{algo_name} in {model_name}: OK over {} sampled runs (n={n}, t={t}, seed {seed}); Λ over samples = {}",
            v.runs,
            v.latency
                .as_ref()
                .and_then(LatencyAggregator::capital_lambda)
                .map_or_else(|| "-".to_string(), |x| x.to_string())
        ),
        Some(cex) => println!(
            "{algo_name} in {model_name}: VIOLATION at sampled run #{}\n\n{cex}",
            v.runs
        ),
    }
    Ok(())
}

fn cmd_refute_sdd(flags: &Flags) -> Result<(), String> {
    let patience = flags.u64_or("patience", 0)?;
    if patience == 0 {
        println!("{}", refute(&WaitOrSuspect, 10_000));
    } else {
        println!("{}", refute(&PatientWait(patience), 100_000));
    }
    Ok(())
}

fn cmd_commit(flags: &Flags) -> Result<(), String> {
    let n = flags.usize_or("n", 4)?;
    let t = flags.usize_or("t", 2)?;
    let trials = flags.u64_or("trials", 2_000)?;
    let crash_prob = flags.f64_or("crash-prob", 0.5)?;
    let workload = CommitWorkload::all_yes(n, t, crash_prob);
    let report = commit_rate_experiment(&workload, trials, 0xC0FFEE);
    println!(
        "all-Yes commit rates over {trials} adversarial scenarios (n={n}, t={t}, crash-prob {crash_prob}):"
    );
    println!("  RS  (SS side):  {:.3}", report.rs_rate());
    println!("  RWS (SP side):  {:.3}", report.rws_rate());
    println!(
        "  gap runs (RS committed, RWS aborted): {}",
        report.gap_runs
    );
    Ok(())
}

fn cmd_heartbeat(flags: &Flags) -> Result<(), String> {
    let n = flags.usize_or("n", 3)?;
    let phi = flags.u64_or("phi", 1)?;
    let delta = flags.u64_or("delta", 1)?;
    let mut crash = vec![None; n];
    if n > 1 {
        crash[1] = Some(5);
    }
    let exp = run_heartbeat_experiment(n, phi, delta, &crash, 2_000);
    let props = classify(&exp.pattern, &exp.history, exp.horizon);
    println!("heartbeats + (Φ+1)(n−1)+Δ timeout in SS(Φ={phi}, Δ={delta}), n={n}:");
    println!("  scenario: {}", exp.pattern);
    println!("  classification: {props}");
    println!(
        "  ⇒ perfect failure detection, as §3 promises: {}",
        props.is_perfect()
    );
    Ok(())
}

fn cmd_emulation(flags: &Flags) -> Result<(), String> {
    let n = flags.usize_or("n", 3)?;
    let phi = flags.u64_or("phi", 1)?;
    let delta = flags.u64_or("delta", 1)?;
    let rounds = flags.u64_or("r", 5)? as u32;
    let mut table = Table::new(vec![
        "round r",
        "K_r (cumulative steps)",
        "k_r (null steps)",
    ]);
    for r in 1..=rounds {
        let k_r = cumulative_round_budget(phi, delta, n, r);
        let k_prev = cumulative_round_budget(phi, delta, n, r - 1);
        table.row(vec![
            r.to_string(),
            k_r.to_string(),
            (k_r - k_prev - n as u64).to_string(),
        ]);
    }
    println!("RS-on-SS emulation budget, n={n}, Φ={phi}, Δ={delta} (§4.1's k(n,Φ,Δ,r)):\n");
    println!("{table}");
    Ok(())
}

/// Parses a half-open `A..B` seed range.
fn parse_seed_range(s: &str) -> Result<std::ops::Range<u64>, String> {
    let (a, b) = s
        .split_once("..")
        .ok_or_else(|| format!("--seed-range: expected A..B, got {s:?}"))?;
    let start: u64 = a
        .parse()
        .map_err(|_| format!("--seed-range: bad start {a:?}"))?;
    let end: u64 = b
        .parse()
        .map_err(|_| format!("--seed-range: bad end {b:?}"))?;
    if start >= end {
        return Err(format!("--seed-range: empty range {s:?}"));
    }
    Ok(start..end)
}

/// Parses `--backend virtual|real` (default virtual: discrete-event
/// time, thousands of seeds per second, byte-identical run logs).
fn parse_backend(flags: &Flags) -> Result<Backend, String> {
    match flags.get("backend") {
        None => Ok(Backend::Virtual),
        Some(v) => v.parse::<Backend>().map_err(|e| format!("--backend: {e}")),
    }
}

/// The optional `<rs|rws>` positional argument, `default` when absent.
fn model_arg(flags: &Flags, default: RoundModel) -> Result<RoundModel, String> {
    flags.positional.get(2).map_or(Ok(default), |m| m.parse())
}

/// Parses `--degrade=rws|abort|off` (default off).
fn parse_degrade(flags: &Flags) -> Result<DegradeMode, String> {
    match flags.get("degrade").unwrap_or("off") {
        "off" => Ok(DegradeMode::Off),
        "rws" => Ok(DegradeMode::Rws),
        "abort" => Ok(DegradeMode::Abort),
        other => Err(format!(
            "--degrade: unknown mode {other:?} (off, rws or abort)"
        )),
    }
}

/// Parses the chaos knobs: `--chaos` enables default rates; any of
/// `--loss`, `--dup`, `--reorder` (fractions in `0..=1`) implies it.
fn parse_chaos(flags: &Flags) -> Result<Option<ChaosConfig>, String> {
    let any_rate = flags.is_set("loss") || flags.is_set("dup") || flags.is_set("reorder");
    if !flags.is_set("chaos") && !any_rate {
        return Ok(None);
    }
    Ok(Some(ChaosConfig {
        loss_pm: flags.rate_pm_or("loss", 100)?,
        dup_pm: flags.rate_pm_or("dup", 50)?,
        reorder_pm: flags.rate_pm_or("reorder", 50)?,
    }))
}

/// The seeded Δ-violation scenario (`runtime-fuzz --delta-violation`):
/// an `RS` run whose network breaks its own bound, under the chosen
/// degradation mode. Deterministic: same flags, same verdict.
fn cmd_delta_violation(degrade: DegradeMode, backend: Backend) -> Result<(), String> {
    let plan = FaultPlan::delta_violation().with_degrade(degrade);
    let config = InitialConfig::new(vec![10u64, 11, 12]);
    let result = RuntimeBuilder::new(&A1, &config)
        .plan(plan.clone())
        .backend(backend)
        .run()
        .map_err(|e| format!("invalid runtime configuration: {e}"))?;
    let run = check_threaded_run(&A1, &config, 1, &result, ValidityMode::Uniform)
        .map_err(|d| format!("delta-violation run diverged from the models: {d}"))?;
    println!("delta-violation a1 in RS, degrade={degrade}: {plan}");
    println!(
        "  watchdog: violated={} events={} degraded_at={:?} aborted={}",
        result.synchrony.violated,
        result.synchrony.events.len(),
        result.synchrony.degraded_at,
        result.synchrony.aborted,
    );
    println!("  verdict: {}", run.verdict);
    match run.verdict {
        RunVerdict::SynchronyViolation => {
            let violation = run
                .violation
                .ok_or("expected the flagged run to violate uniform agreement")?;
            println!("  spec: {violation}");
            println!("  ⇒ Δ broke and nothing degraded: §5.3 smuggled into \"RS\", flagged");
        }
        RunVerdict::DegradedRws { at } => {
            println!("  ⇒ downgraded at {at}; certified as an admissible RWS run");
        }
        RunVerdict::Aborted => {
            println!("  ⇒ run stopped undecided at the first over-Δ wire");
        }
        RunVerdict::Rs | RunVerdict::Rws => {
            return Err(format!(
                "scenario failed to trip the watchdog (verdict {})",
                run.verdict
            ))
        }
    }
    Ok(())
}

fn cmd_runtime_fuzz(flags: &Flags) -> Result<(), String> {
    let degrade = parse_degrade(flags)?;
    let backend = parse_backend(flags)?;
    if flags.is_set("delta-violation") {
        return cmd_delta_violation(degrade, backend);
    }
    let algo_name = flags.positional.get(1).map_or("a1", String::as_str);
    let model = model_arg(flags, RoundModel::Rws)?;
    let n = flags.usize_or("n", 3)?;
    let t = flags.usize_or("t", 1)?;
    if n == 0 || t >= n {
        return Err(format!("need 0 ≤ t < n, got n={n}, t={t}"));
    }
    check_a1_bounds(algo_name, n, t)?;
    let seeds = parse_seed_range(flags.get("seed-range").unwrap_or("0..16"))?;
    let mode = match flags.get("validity").unwrap_or("uniform") {
        "uniform" => ValidityMode::Uniform,
        "strong" => ValidityMode::Strong,
        other => {
            return Err(format!(
                "--validity: unknown mode {other:?} (uniform or strong)"
            ))
        }
    };
    let chaos = parse_chaos(flags)?;
    // Distinct inputs make every agreement violation visible.
    let config = InitialConfig::new((0..n as u64).map(|i| 10 + i).collect::<Vec<_>>());
    let report = with_algo!(algo_name, algo => {
        fuzz_runtime(
            &RuntimeBuilder::new(&algo, &config)
                .t(t)
                .model(model)
                .chaos(chaos)
                .degrade(degrade)
                .backend(backend),
            seeds.clone(),
            mode,
        )
    })?;
    println!(
        "runtime-fuzz {algo_name} in {model}: {} seeded runs on the {backend} clock (n={n}, t={t}, seeds {}..{})",
        report.runs, seeds.start, seeds.end
    );
    if let Some(chaos) = chaos {
        println!(
            "  chaos: loss {}‰, dup {}‰, reorder {}‰ over the reliable layer; degrade={degrade}",
            chaos.loss_pm, chaos.dup_pm, chaos.reorder_pm
        );
    }
    if !report.synchrony_flags.is_empty() || report.degraded > 0 || report.aborted > 0 {
        println!(
            "  watchdog: {} flagged, {} degraded, {} aborted",
            report.synchrony_flags.len(),
            report.degraded,
            report.aborted
        );
    }
    if report.spec_violations.is_empty() {
        println!("  spec violations: none");
    } else {
        println!(
            "  spec violations: {} (a finding about {algo_name}, not a runtime bug)",
            report.spec_violations.len()
        );
        for (seed, violation) in report.spec_violations.iter().take(3) {
            println!("    seed {seed}: {violation}");
        }
        println!(
            "  model checker sweeping the same space agrees: {}",
            report.checker_agrees
        );
    }
    if model == RoundModel::Rws && algo_name == "a1" && !seeds.contains(&SECTION_5_3_SEED) {
        println!("  hint: seed {SECTION_5_3_SEED} scripts the §5.3 two-pending-broadcast anomaly");
    }
    if report.divergences.is_empty() {
        println!(
            "  runtime ↔ model conformance: every trace admissible and replayed tick-for-tick"
        );
        Ok(())
    } else {
        let mut msg = format!(
            "runtime diverged from the round models on {} seed(s):",
            report.divergences.len()
        );
        for (seed, detail) in &report.divergences {
            msg.push_str(&format!("\n  seed {seed}: {detail}"));
        }
        Err(msg)
    }
}

/// `ssp trace-dump`: run one seeded fault plan through the threaded
/// runtime and print the canonical run log as line-delimited JSON, or
/// diff two previously dumped logs (`--diff`).
fn cmd_trace_dump(flags: &Flags) -> Result<(), String> {
    if let Some(left_path) = flags.get("diff") {
        let right_path = flags.positional.get(1).ok_or(TRACE_DUMP_USAGE)?.as_str();
        return diff_dumped_logs(left_path, right_path);
    }
    let algo_name = flags.positional.get(1).ok_or(TRACE_DUMP_USAGE)?.as_str();
    let model_name = flags.positional.get(2).ok_or(TRACE_DUMP_USAGE)?.as_str();
    let model: RoundModel = model_name.parse()?;
    let n = flags.usize_or("n", 3)?;
    let t = flags.usize_or("t", 1)?;
    if n == 0 || t >= n {
        return Err(format!("need 0 ≤ t < n, got n={n}, t={t}"));
    }
    check_a1_bounds(algo_name, n, t)?;
    let seed = flags.u64_or("seed", SECTION_5_3_SEED)?;
    let backend = parse_backend(flags)?;
    let config = InitialConfig::new((0..n as u64).map(|i| 10 + i).collect::<Vec<_>>());
    let jsonl = with_algo!(algo_name, algo => {
        let result = RuntimeBuilder::new(&algo, &config)
            .t(t)
            .model(model)
            .seed(seed)
            .degrade(parse_degrade(flags)?)
            .backend(backend)
            .run()
            .map_err(|e| format!("invalid runtime configuration: {e}"))?;
        result.trace.run_log().to_jsonl()
    })?;
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &jsonl).map_err(|e| format!("--out {path}: {e}"))?;
            println!(
                "wrote {} events ({algo_name} {model_name}, n={n}, t={t}, seed {seed}) to {path}",
                jsonl.lines().count() - 1
            );
        }
        None => print!("{jsonl}"),
    }
    Ok(())
}

/// Diffs two JSONL run logs; a divergence is an error (nonzero exit),
/// like `diff(1)`.
fn diff_dumped_logs(left_path: &str, right_path: &str) -> Result<(), String> {
    let load = |path: &str| -> Result<RunLog<String>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        RunLog::from_jsonl(&text, |raw| Some(raw.to_string())).map_err(|e| format!("{path}: {e}"))
    };
    let left = load(left_path)?;
    let right = load(right_path)?;
    match left.first_divergence(&right) {
        None => {
            println!("logs agree: {} events", left.len());
            Ok(())
        }
        Some(d) => Err(format!("logs diverge at {d}")),
    }
}

/// `ssp serve`: the replicated state-machine service — an unbounded
/// sequence of consensus instances over the threaded runtime, driven
/// by a seeded closed-loop workload, audited in the background.
/// Exits nonzero if any instance fails its audit.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let algo_name = flags.positional.get(1).ok_or(SERVE_USAGE)?.as_str();
    let model = model_arg(flags, RoundModel::Rs)?;
    let n = flags.usize_or("n", 3)?;
    let t = flags.usize_or("t", 1)?;
    if n == 0 || t >= n {
        return Err(format!("need 0 ≤ t < n, got n={n}, t={t}"));
    }
    check_a1_bounds(algo_name, n, t)?;
    let mut cfg = EngineConfig::new(n, t, model);
    cfg.instances = flags.u64_or("instances", 50)?;
    cfg.seed = flags.u64_or("seed", 1)?;
    cfg.batch_max = flags.usize_or("batch", 8)?;
    if flags.is_set("failure-free") {
        cfg.faults = FaultMode::FailureFree;
    }
    cfg.chaos = parse_chaos(flags)?;
    cfg.degrade = parse_degrade(flags)?;
    cfg.backend = parse_backend(flags)?;
    if flags.is_set("drain") {
        // Routed into the runtime's typed validation: a drain below the
        // network's worst transport delay is a ConfigError, not a hang.
        cfg.drain = Some(std::time::Duration::from_millis(flags.u64_or("drain", 0)?));
    }
    let mut wcfg = WorkloadConfig::new(flags.usize_or("clients", 16)?);
    wcfg.keys =
        u32::try_from(flags.u64_or("keys", 64)?).map_err(|_| "--keys: too large".to_string())?;
    wcfg.skew = flags.f64_or("skew", 1.0)?;
    // An explicit cross-shard rate is meaningless without `--shards`:
    // a single group leaves no second group for a transaction to span.
    // The default (flag absent) is not an error — `--shards` alone is
    // a plain sharded run with no cross-shard traffic.
    if flags.is_set("cross-shard-rate") && !flags.is_set("shards") {
        let rate = flags.f64_or("cross-shard-rate", 0.0)?;
        return Err(format!(
            "invalid runtime configuration: {}",
            ConfigError::CrossShardRateWithoutShards {
                rate_pm: rate_pm(rate)
            }
        ));
    }
    if flags.is_set("shards") {
        return cmd_serve_sharded(flags, algo_name, &cfg, wcfg);
    }
    let mut workload = Workload::new(cfg.seed, wcfg);
    // The report's log type depends on the algorithm's message type, so
    // render everything inside the monomorphized body.
    let (stats, logs_jsonl) = with_algo!(algo_name, algo => {
        let report = serve(&algo, &cfg, &mut workload)
            .map_err(|e| format!("invalid runtime configuration: {e}"))?;
        let mut logs = String::new();
        for log in &report.logs {
            logs.push_str(&log.to_jsonl());
        }
        (report.stats, logs)
    })?;
    println!("{stats}");
    if let Some(path) = flags.get("stats-out") {
        std::fs::write(path, stats.to_json()).map_err(|e| format!("--stats-out {path}: {e}"))?;
    }
    if let Some(path) = flags.get("logs-out") {
        std::fs::write(path, logs_jsonl).map_err(|e| format!("--logs-out {path}: {e}"))?;
    }
    if stats.audit_violations > 0 || stats.audit_divergences > 0 {
        return Err(format!(
            "audit failed: {} spec violations, {} divergences over {} audited instances",
            stats.audit_violations, stats.audit_divergences, stats.audit_checked
        ));
    }
    Ok(())
}

/// `ssp serve --shards G`: the sharded multi-group service — `G`
/// independent consensus groups over a key-hash partition, cross-shard
/// transactions resolved by audited non-blocking atomic commit. Exits
/// nonzero if any group's consensus audit or any cross-shard NBAC
/// audit fails.
fn cmd_serve_sharded(
    flags: &Flags,
    algo_name: &str,
    engine: &EngineConfig,
    mut wcfg: WorkloadConfig,
) -> Result<(), String> {
    let mut cfg = ShardedConfig::new(engine.clone(), flags.usize_or("shards", 1)?);
    cfg.cross_shard_rate = flags.f64_or("cross-shard-rate", 0.0)?;
    cfg.prepare_patience = flags.u64_or("prepare-patience", 8)?;
    if flags.is_set("crash-group") {
        // One scripted group-local crash: the named process dies in
        // the named instance of the named group (prefix mode, dying
        // after its first send of the round).
        let round = u32::try_from(flags.u64_or("crash-round", 1)?)
            .map_err(|_| "--crash-round: too large".to_string())?;
        cfg.group_crashes.push((
            flags.usize_or("crash-group", 0)?,
            EngineCrash {
                instance: flags.u64_or("crash-instance", 0)?,
                process: flags.usize_or("crash-process", 0)?,
                crash: ThreadCrash::prefix(round, flags.usize_or("crash-after-sends", 1)?),
            },
        ));
    }
    cfg.validate()
        .map_err(|e| format!("invalid runtime configuration: {e}"))?;
    wcfg.shards = cfg.shards;
    wcfg.cross_shard_rate = cfg.cross_shard_rate;
    let mut workload = Workload::new(cfg.engine.seed, wcfg);
    let (stats, logs_jsonl, cross_violation) = with_algo!(algo_name, algo => {
        let report = serve_sharded(&algo, &cfg, &mut workload)
            .map_err(|e| format!("invalid runtime configuration: {e}"))?;
        let mut logs = String::new();
        for group in &report.groups {
            for log in &group.logs {
                logs.push_str(&log.to_jsonl());
            }
        }
        (report.stats, logs, report.cross_violation)
    })?;
    println!("{stats}");
    if let Some(path) = flags.get("stats-out") {
        std::fs::write(path, stats.to_json()).map_err(|e| format!("--stats-out {path}: {e}"))?;
    }
    if let Some(path) = flags.get("logs-out") {
        std::fs::write(path, logs_jsonl).map_err(|e| format!("--logs-out {path}: {e}"))?;
    }
    let agg = stats.aggregate();
    if agg.audit_violations > 0 || agg.audit_divergences > 0 {
        return Err(format!(
            "audit failed: {} spec violations, {} divergences over {} audited instances",
            agg.audit_violations, agg.audit_divergences, agg.audit_checked
        ));
    }
    if let Some(violation) = cross_violation {
        return Err(format!(
            "cross-shard NBAC audit failed: {violation} ({} violations over {} exchanges)",
            stats.cross.nbac_violations,
            stats.cross.committed + stats.cross.aborted,
        ));
    }
    Ok(())
}

/// Reads a `--<key>-ms` millisecond flag with a default.
fn ms_or(flags: &Flags, key: &str, default_ms: u64) -> Result<Duration, String> {
    Ok(Duration::from_millis(flags.u64_or(key, default_ms)?))
}

/// Fills a [`NodeConfig`]'s shared knobs (sizes, timing, guard, socket
/// faults) from the flags — used identically by `serve --node` and
/// `serve-cluster` so a node launched by hand matches one launched by
/// the parent. Any `--proxy-*` delay, drop rate or reset turns on the
/// faults each node applies to its own outgoing data frames.
fn node_config_from_flags(
    flags: &Flags,
    me: usize,
    n: usize,
    listen: String,
    peers: Vec<String>,
) -> Result<NodeConfig, String> {
    let mut cfg = NodeConfig::new(me, n, listen, peers, flags.u64_or("seed", 1)?);
    cfg.instances = flags.u64_or("instances", 8)?;
    cfg.batch_max = flags.usize_or("batch", 4)?;
    cfg.clients = flags.usize_or("clients", 8)?;
    cfg.epoch = flags.u64_or("epoch", 1)?;
    cfg.heartbeat = ms_or(flags, "hb-ms", 25)?;
    cfg.fd_timeout = ms_or(flags, "fd-timeout-ms", 2000)?;
    cfg.drain = ms_or(flags, "drain", 150)?;
    cfg.round_timeout = ms_or(flags, "round-timeout-ms", 10_000)?;
    cfg.instance_gap = ms_or(flags, "gap-ms", 0)?;
    if flags.is_set("delta-ms") {
        cfg.delta = Some(ms_or(flags, "delta-ms", 0)?);
        cfg.degrade = parse_degrade(flags)?;
    }
    if ["proxy-delay-ms", "proxy-drop-rate", "proxy-reset-after"]
        .iter()
        .any(|key| flags.is_set(key))
    {
        let reset_after = match flags.get("proxy-reset-after") {
            None => None,
            Some(_) => Some(flags.u64_or("proxy-reset-after", 0)?),
        };
        cfg.faults = Some(SocketFaults {
            seed: flags.u64_or("proxy-seed", cfg.seed)?,
            delay_pm: u32::from(flags.rate_pm_or("proxy-delay-rate", 1000)?),
            delay: ms_or(flags, "proxy-delay-ms", 0)?,
            drop_pm: u32::from(flags.rate_pm_or("proxy-drop-rate", 0)?),
            reset_after,
        });
    }
    Ok(cfg)
}

/// `ssp serve --node I`: one cluster node as one OS process, speaking
/// the socket transport to its peers and appending its observation
/// report to `--report` (or stdout). Suspicion comes exclusively from
/// the PFD staleness timeout — losing a TCP connection alone never
/// suspects anyone.
fn cmd_serve_node(flags: &Flags) -> Result<(), String> {
    let algo = flags.positional.get(1).map_or("a1", String::as_str);
    let model = flags.positional.get(2).map_or("rs", String::as_str);
    if algo != "a1" || model != "rs" {
        return Err(format!(
            "multi-process serving is wired for `a1 rs` only, got {algo:?} {model:?}\n{SERVE_NODE_USAGE}"
        ));
    }
    let me = flags.usize_or("node", 0)?;
    let listen = flags.get("listen").ok_or(SERVE_NODE_USAGE)?.to_string();
    let peers: Vec<String> = flags
        .get("peers")
        .ok_or(SERVE_NODE_USAGE)?
        .split(',')
        .map(|s| s.trim().to_string())
        .collect();
    let n = flags.usize_or("n", peers.len())?;
    if n != peers.len() || me >= n {
        return Err(format!(
            "need --node < n and one peer address per process, got node {me}, n {n}, {} peers",
            peers.len()
        ));
    }
    check_a1_bounds("a1", n, 1)?;
    let cfg = node_config_from_flags(flags, me, n, listen, peers)?;
    let gateway = match flags.get("gateway-listen") {
        Some(addr) => {
            let mut gw = GatewayNodeConfig::new(addr.to_string());
            gw.queue_cap = flags.usize_or("gateway-queue", gw.queue_cap)?;
            Some(gw)
        }
        None => None,
    };
    match flags.get("report") {
        Some(path) => serve_node_to_file(&cfg, gateway.as_ref(), Path::new(path))
            .map_err(|e| format!("node {me}: {e}")),
        None => {
            let stdout = std::io::stdout();
            serve_node_with(&cfg, gateway.as_ref(), &mut stdout.lock())
                .map_err(|e| format!("node {me}: {e}"))
        }
    }
}

/// `ssp serve-cluster`: spawn one `ssp serve --node` OS process per
/// consensus process on loopback, optionally hand every node the same
/// seeded socket faults (`--proxy-*`, applied by each node to its own
/// outgoing data frames) and/or `kill -9` one node mid-run, then merge
/// the node reports, replay the
/// deterministic workload and certify every instance with the same
/// audit pipeline as in-process runs. Exits nonzero only on a spec
/// violation or model divergence — a `SynchronyViolation` or `aborted`
/// verdict under a scripted Δ violation is a demonstrated outcome, not
/// an error.
fn cmd_serve_cluster(flags: &Flags) -> Result<(), String> {
    let n = flags.usize_or("n", 4)?;
    if n < 2 {
        return Err(format!("need n ≥ 2, got {n}"));
    }
    let node = node_config_from_flags(flags, 0, n, String::new(), Vec::new())?;
    let kill = if flags.is_set("kill9") {
        let victim = flags.usize_or("kill9", 0)?;
        if victim >= n {
            return Err(format!("--kill9: node {victim} out of range (n={n})"));
        }
        Some(KillSpec {
            node: victim,
            after_instance: flags.u64_or("kill-at", 1)?,
        })
    } else {
        None
    };
    let gateway = if flags.is_set("gateway-base-port") {
        let base_port = u16::try_from(flags.u64_or("gateway-base-port", 0)?)
            .map_err(|_| "--gateway-base-port: not a port".to_string())?;
        Some(GatewaySpec {
            base_port,
            queue_cap: flags.usize_or("gateway-queue", 64)?,
        })
    } else {
        None
    };
    let bin = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = flags.get("dir").map_or_else(
        || std::env::temp_dir().join(format!("ssp-cluster-{}-{}", std::process::id(), node.seed)),
        PathBuf::from,
    );
    let cluster = ClusterConfig {
        node,
        kill,
        gateway,
    };
    let report = run_cluster(&bin, &cluster, &dir).map_err(|e| e.to_string())?;
    println!("{}", report.stats);
    let verdicts: Vec<String> = report
        .audits
        .iter()
        .map(|a| a.verdict.to_string())
        .collect();
    println!("verdicts: {}", verdicts.join(", "));
    if report.crashed_nodes.is_empty() {
        println!("suspected: none");
    } else {
        let list: Vec<String> = report
            .crashed_nodes
            .iter()
            .map(|(p, k)| format!("p{p} (crashed in instance {k})"))
            .collect();
        println!("suspected: {}", list.join(", "));
    }
    println!("digest: {:#018x}", report.stats.kv_digest);
    if let Some(path) = flags.get("stats-out") {
        std::fs::write(path, report.stats.to_json())
            .map_err(|e| format!("--stats-out {path}: {e}"))?;
    }
    if let Some(path) = flags.get("logs-out") {
        let mut logs = String::new();
        for log in &report.logs {
            logs.push_str(&log.to_jsonl());
        }
        std::fs::write(path, logs).map_err(|e| format!("--logs-out {path}: {e}"))?;
    }
    if report.stats.audit_violations > 0 || report.stats.audit_divergences > 0 {
        let mut msg = format!(
            "audit failed: {} spec violations, {} divergences over {} audited instances",
            report.stats.audit_violations,
            report.stats.audit_divergences,
            report.stats.audit_checked
        );
        for audit in report.audits.iter().filter(|a| !a.is_clean()) {
            msg.push_str(&format!("\n  instance {}:", audit.instance));
            if let Some(v) = &audit.violation {
                msg.push_str(&format!(" violation: {v}"));
            }
            if let Some(d) = &audit.divergence {
                msg.push_str(&format!(" divergence: {d}"));
            }
        }
        return Err(msg);
    }
    Ok(())
}

/// `ssp load`: drive a gateway-fronted cluster with the
/// seed-deterministic external client population — closed loop
/// (`--concurrency` clients, one request in flight each) or open loop
/// (`--rate` scheduled arrivals/second) — and print the
/// client-observed report (acks, retries, p50/p99/max latency) as one
/// JSON object. With `--inproc`, the same client population drives
/// the sharded engine directly as a scripted external source, so the
/// per-class ack-*round* histograms are deterministic per seed: the
/// client-observed face of Theorem 5.2.
fn cmd_load(flags: &Flags) -> Result<(), String> {
    if flags.is_set("rate") && flags.is_set("concurrency") {
        return Err(
            "--rate (open loop) and --concurrency (closed loop) are mutually exclusive".to_string(),
        );
    }
    if flags.is_set("inproc") {
        return cmd_load_inproc(flags);
    }
    let targets: Vec<String> = flags
        .get("targets")
        .ok_or(LOAD_USAGE)?
        .split(',')
        .map(|s| s.trim().to_string())
        .collect();
    let mut cfg = LoadConfig::new(targets, flags.u64_or("seed", 1)?);
    cfg.requests = flags.u64_or("requests", 32)?;
    cfg.deadline = ms_or(flags, "deadline-ms", 10_000)?;
    if flags.is_set("rate") {
        cfg.mode = LoadMode::Open {
            rate: flags.f64_or("rate", 0.0)?,
        };
    } else {
        cfg.mode = LoadMode::Closed {
            concurrency: flags.usize_or("concurrency", 4)?,
        };
    }
    let report = run_load(&cfg)?;
    println!("{}", report.to_json());
    if let Some(path) = flags.get("json") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("--json {path}: {e}"))?;
    }
    if report.gave_up > 0 {
        return Err(format!(
            "{} of {} requests gave up at the {} ms deadline",
            report.gave_up,
            report.requests,
            cfg.deadline.as_millis()
        ));
    }
    Ok(())
}

/// `ssp load --inproc`: scripted external clients against the sharded
/// engine, no sockets — every ack carries its decision round, and the
/// round histograms are byte-identical per seed.
fn cmd_load_inproc(flags: &Flags) -> Result<(), String> {
    let algo_name = flags.positional.get(1).map_or("a1", String::as_str);
    let model = model_arg(flags, RoundModel::Rs)?;
    let n = flags.usize_or("n", 3)?;
    let t = flags.usize_or("t", 1)?;
    if n == 0 || t >= n {
        return Err(format!("need 0 ≤ t < n, got n={n}, t={t}"));
    }
    check_a1_bounds(algo_name, n, t)?;
    let mut engine = EngineConfig::new(n, t, model);
    engine.instances = flags.u64_or("instances", 64)?;
    engine.seed = flags.u64_or("seed", 1)?;
    engine.batch_max = flags.usize_or("batch", 8)?;
    let mut cfg = ShardedConfig::new(engine, flags.usize_or("shards", 1)?);
    cfg.cross_shard_rate = 0.0;
    cfg.validate()
        .map_err(|e| format!("invalid runtime configuration: {e}"))?;
    let mut load = InprocLoadConfig::new(flags.u64_or("seed", 1)?);
    load.clients = flags.usize_or("clients", 4)?;
    load.requests_per_client = u32::try_from(flags.u64_or("requests-per-client", 8)?)
        .map_err(|_| "--requests-per-client: too large".to_string())?;
    load.cross_rate = flags.f64_or("cross-rate", 0.0)?;
    if load.cross_rate > 0.0 && cfg.shards < 2 {
        return Err("--cross-rate needs --shards ≥ 2 (a single group leaves no \
                    second group for a transaction to span)"
            .to_string());
    }
    let report = with_algo!(algo_name, algo => {
        run_inproc_load(&algo, &cfg, &load)?
    })?;
    println!("{}", report.to_json());
    if let Some(path) = flags.get("json") {
        std::fs::write(path, report.to_json()).map_err(|e| format!("--json {path}: {e}"))?;
    }
    Ok(())
}

/// `ssp explore`: systematic exploration of the whole adversary space
/// of one small instance — every crash schedule crossed with every
/// pending-message choice, quotiented to inequivalent run-log classes
/// with persistent/sleep-set pruning — each executed class cross-
/// checked against the round models, every violation shrunk to a
/// least witness. Deterministic: same flags, byte-identical output.
fn cmd_explore(flags: &Flags) -> Result<(), String> {
    let algo_flag = flags
        .get("algo")
        .map(str::to_string)
        .or_else(|| flags.positional.get(1).cloned())
        .unwrap_or_else(|| "a1".to_string());
    // `flood` reads better at the prompt; canonicalize to the full name.
    let algo_name = match algo_flag.as_str() {
        "flood" => "floodset",
        "flood-ws" => "floodset-ws",
        other => other,
    };
    let model = flags
        .get("model")
        .or_else(|| flags.positional.get(2).map(String::as_str))
        .map_or(Ok(RoundModel::Rws), str::parse)
        .map_err(|e| format!("{e}\n{EXPLORE_USAGE}"))?;
    let t = flags.usize_or("t", 1)?;
    let backend = parse_backend(flags)?;
    let limit = match flags.get("limit") {
        None => None,
        Some(_) => Some(flags.u64_or("limit", 0)?),
    };
    // Distinct inputs by default, so any agreement violation is
    // visible; --inputs overrides (and then fixes n).
    let config = match flags.get("inputs") {
        Some(list) => {
            let values = list
                .split(',')
                .map(|v| {
                    v.trim()
                        .parse::<u64>()
                        .map_err(|_| format!("--inputs: bad value {v:?}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            if flags.is_set("n") && flags.usize_or("n", 0)? != values.len() {
                return Err(format!(
                    "--n contradicts --inputs ({} values given)",
                    values.len()
                ));
            }
            InitialConfig::new(values)
        }
        None => {
            let n = flags.usize_or("n", 3)?;
            InitialConfig::new((0..n as u64).map(|i| 10 + i).collect::<Vec<_>>())
        }
    };
    check_a1_bounds(algo_name, config.n(), t)?;
    // Enumeration needs a deterministic clock: wall-clock jitter would
    // make class counts meaningless.
    if backend == Backend::Real {
        return Err(
            "exploration needs a deterministic clock: use the virtual backend, not real"
                .to_string(),
        );
    }
    // Bounds (2 ≤ n ≤ 5, t ≤ 2, t < n) are the explorer's own typed
    // error — surfaced, not re-derived here.
    let report = match flags.get("sym").unwrap_or("off") {
        "off" => with_algo!(algo_name, algo => {
            Explorer::new(&algo, &config)
                .t(t)
                .model(model)
                .limit(limit)
                .run()
        })?,
        "full" => with_symmetric_algo!(algo_name, algo => {
            Explorer::new(&algo, &config)
                .t(t)
                .model(model)
                .limit(limit)
                .run_quotient()
        })?,
        other => return Err(format!("--sym: unknown setting {other:?} (off or full)")),
    }
    .map_err(|e| e.to_string())?;
    println!("{report}");
    if !report.divergences.is_empty() {
        let mut msg = format!(
            "runtime diverged from the round models in {} class(es):",
            report.divergences.len()
        );
        for detail in &report.divergences {
            msg.push_str(&format!("\n  {detail}"));
        }
        return Err(msg);
    }
    match &report.witness {
        None => println!("no violating class: every execution satisfies uniform consensus"),
        Some(w) => {
            println!("violation: {}", w.violation);
            println!("witness (shrunk): {}", w.record);
            if w.record != w.original {
                println!("  shrunk from: {}", w.original);
            }
            println!("  realized as: {}", w.plan);
            println!("  json: {}", w.record.to_json());
        }
    }
    Ok(())
}

// Each subcommand's usage. It is also the list of flags the
// subcommand accepts: any other flag is rejected before it runs, so a
// typo cannot silently fall back to a default.
const LATENCY_USAGE: &str = "usage: ssp latency [-n N] [-t T]";
const VERIFY_USAGE: &str =
    "usage: ssp verify <algo> <rs|rws> [-n N] [-t T] [--threads K] [--sym off|values|full]";
const SAMPLE_USAGE: &str =
    "usage: ssp sample <algo> <rs|rws> [-n N] [-t T] [--trials K] [--seed S]";
const REFUTE_SDD_USAGE: &str = "usage: ssp refute-sdd [--patience K]";
const COMMIT_USAGE: &str = "usage: ssp commit [-n N] [-t T] [--trials K] [--crash-prob P]";
const HEARTBEAT_USAGE: &str = "usage: ssp heartbeat [-n N] [--phi F] [--delta D]";
const EMULATION_USAGE: &str = "usage: ssp emulation [-n N] [--phi F] [--delta D] [-r R]";
const RUNTIME_FUZZ_USAGE: &str = "usage: ssp runtime-fuzz [<algo> <rs|rws>] [--seed-range A..B] \
                                  [-n N] [-t T] [--validity uniform|strong] [--chaos] [--loss P] \
                                  [--dup P] [--reorder P] [--degrade=rws|abort|off] \
                                  [--backend virtual|real] [--delta-violation]";
const TRACE_DUMP_USAGE: &str = "usage: ssp trace-dump <algo> <rs|rws> [--seed S] [-n N] [-t T] \
                                [--degrade=rws|abort|off] [--backend virtual|real] [--out FILE]\n\
                                \u{20}      ssp trace-dump --diff FILE1 FILE2";
const SERVE_USAGE: &str = "usage: ssp serve <algo> [rs|rws] [-n N] [-t T] [--clients K] \
                           [--instances I] [--seed S] [--batch B] [--keys K] [--skew Z] \
                           [--failure-free] [--chaos] [--loss P] [--dup P] [--reorder P] \
                           [--degrade=rws|abort|off] [--backend virtual|real] [--drain MS] \
                           [--shards G] [--cross-shard-rate P] [--prepare-patience T] \
                           [--crash-group G --crash-instance I --crash-process P \
                           --crash-round R [--crash-after-sends S]] [--stats-out FILE] \
                           [--logs-out FILE]";
const SERVE_NODE_USAGE: &str = "usage: ssp serve a1 rs --node I --listen ADDR --peers A0,A1,.. \
                                [--report FILE] [-n N] [--instances I] [--seed S] [--batch B] \
                                [--clients K] [--epoch E] [--hb-ms MS] [--fd-timeout-ms MS] \
                                [--delta-ms MS] [--degrade=rws|abort|off] [--drain MS] \
                                [--round-timeout-ms MS] [--gap-ms MS] [--gateway-listen ADDR] \
                                [--gateway-queue N] [--proxy-delay-ms MS] [--proxy-delay-rate P] \
                                [--proxy-drop-rate P] [--proxy-reset-after K] [--proxy-seed S]";
const SERVE_CLUSTER_USAGE: &str = "usage: ssp serve-cluster [-n N] [--instances I] [--seed S] \
                                   [--batch B] [--clients K] [--kill9 NODE] [--kill-at K] \
                                   [--delta-ms MS] [--degrade=rws|abort|off] \
                                   [--proxy-delay-ms MS] [--proxy-delay-rate P] \
                                   [--proxy-drop-rate P] [--proxy-reset-after K] \
                                   [--proxy-seed S] [--hb-ms MS] [--fd-timeout-ms MS] \
                                   [--drain MS] [--round-timeout-ms MS] [--gap-ms MS] \
                                   [--gateway-base-port P] [--gateway-queue N] [--dir DIR] \
                                   [--stats-out FILE] [--logs-out FILE]";
const LOAD_USAGE: &str = "usage: ssp load --targets A0,A1,.. [--requests R] [--seed S] \
                          [--concurrency C | --rate R] [--deadline-ms MS] [--json FILE]\n\
                          usage: ssp load --inproc [<algo> <rs|rws>] [--shards G] [--clients C] \
                          [--requests-per-client R] [--cross-rate P] [-n N] [-t T] \
                          [--instances I] [--batch B] [--seed S] [--json FILE]";
const EXPLORE_USAGE: &str = "usage: ssp explore [<algo> <rs|rws>] [--algo A] [--model rs|rws] \
                             [--n N] [--t T] [--inputs v1,v2,..] [--sym off|full] [--limit K] \
                             [--backend virtual]";

/// Whether `usage` lists the flag `key` (as `--key` or `-key`).
fn usage_names(usage: &str, key: &str) -> bool {
    usage
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .any(|word| word.starts_with('-') && word.trim_start_matches('-') == key)
}

const USAGE: &str = "usage: ssp <command> [options]

commands:
  latency    [-n N] [-t T]                         lat/Lat/Λ table (§5.2)
  verify     <algo> <rs|rws> [-n N] [-t T] [--threads K] [--sym off|values|full]
  sample     <algo> <rs|rws> [-n N] [-t T] [--trials K] [--seed S]
  refute-sdd [--patience K]                        Theorem 3.1, mechanized
  commit     [-n N] [-t T] [--trials K] [--crash-prob P]
  heartbeat  [-n N] [--phi F] [--delta D]          timeouts implement P (§3)
  emulation  [-n N] [--phi F] [--delta D] [-r R]   §4.1 step budgets
  runtime-fuzz [<algo> <rs|rws>] [--seed-range A..B] [-n N] [-t T] [--validity uniform|strong]
             [--chaos] [--loss P] [--dup P] [--reorder P] [--degrade=rws|abort|off]
             [--backend virtual|real] [--delta-violation]
             sweep seeded fault plans through the threaded runtime and
             certify every trace against the round models (default: a1 rws);
             --chaos adds seed-deterministic loss/dup/reorder masked by the
             reliable layer, --delta-violation runs the scripted Δ-violation
             scenario under the chosen degradation mode; --backend selects
             the clock (virtual: discrete-event time, thousands of seeds/s,
             byte-identical run logs; real: OS clock)
  trace-dump <algo> <rs|rws> [--seed S] [-n N] [-t T] [--degrade=rws|abort|off]
             [--backend virtual|real] [--out FILE]
  trace-dump --diff FILE1 FILE2
             run one seeded fault plan through the threaded runtime and
             print the canonical run log as line-delimited JSON (default
             seed: the §5.3 anomaly), or report the first divergent
             event between two dumped logs (exit 1 if they differ)
  serve      <algo> [rs|rws] [-n N] [-t T] [--clients K] [--instances I] [--seed S]
             [--batch B] [--keys K] [--skew Z] [--failure-free]
             [--chaos] [--loss P] [--dup P] [--reorder P] [--degrade=rws|abort|off]
             [--backend virtual|real] [--drain MS] [--stats-out FILE] [--logs-out FILE]
             replicated state-machine service: repeated consensus instances
             over the threaded runtime under a seeded closed-loop workload,
             every instance audited against the round models in the
             background (exit 1 on any violation); deterministic stats JSON
             via --stats-out, per-instance run logs via --logs-out
  serve      a1 rs --node I --listen ADDR --peers A0,A1,.. [--report FILE]
             [--instances I] [--seed S] [--hb-ms MS] [--fd-timeout-ms MS]
             [--delta-ms MS] [--degrade=rws|abort|off] [--drain MS]
             [--proxy-delay-ms MS] [--proxy-delay-rate P] [--proxy-drop-rate P]
             [--proxy-reset-after K] [--proxy-seed S]
             one cluster node as one OS process over real TCP sockets:
             length-prefixed frames, reconnect with capped backoff,
             retransmit + dedup, PFD suspicion only via staleness
             timeout (never from connection loss), online Δ guard,
             optional seeded faults on its own outgoing data frames
  serve-cluster [-n N] [--instances I] [--seed S] [--kill9 NODE] [--kill-at K]
             [--delta-ms MS] [--degrade=rws|abort|off] [--proxy-delay-ms MS]
             [--proxy-delay-rate P] [--proxy-drop-rate P] [--proxy-reset-after K]
             [--proxy-seed S] [--dir DIR] [--stats-out FILE] [--logs-out FILE]
             spawn a loopback cluster of `serve --node` processes
             (optionally with seeded socket faults — delay, drop,
             reset — applied at each sending node, optionally
             kill -9'ing one node mid-run), merge the
             node reports and certify every instance with the same
             audit pipeline as in-process serving (exit 1 only on a
             spec violation or divergence)
  load       --targets A0,A1,.. [--requests R] [--seed S] [--concurrency C | --rate R]
             [--deadline-ms MS] [--json FILE]
             seed-deterministic external-client load against a
             gateway-fronted cluster (start one with `serve-cluster
             --gateway-base-port P`): closed loop (--concurrency) or
             open loop (--rate, coordinated-omission-corrected), with
             idempotent capped-backoff resubmission and client-observed
             p50/p99/max latency; exit 1 if any request gave up
  load       --inproc [<algo> <rs|rws>] [--shards G] [--clients C]
             [--requests-per-client R] [--cross-rate P] [--seed S] [--json FILE]
             the same client population as a scripted external source
             driving the sharded engine in-process: ack-round
             histograms (single vs cross-shard) deterministic per seed
             — the client-observed face of Theorem 5.2
  explore    [<algo> <rs|rws>] [--n N] [--t T] [--inputs v1,v2,..] [--sym off|full]
             [--limit K] [--backend virtual]
             systematically enumerate EVERY adversary of one small
             instance (crash schedules × pending-message choices, n ≤ 5,
             t ≤ 2), pruned to inequivalent run-log classes, each class
             executed once on the threaded runtime and certified against
             the round models; violations are shrunk to a least witness
             (default: a1 rws, the §5.3 instance); `flood` is accepted
             for `floodset`, --sym full quotients process permutations

algorithms: floodset floodset-ws c-opt c-opt-ws f-opt f-opt-ws a1 ct early early-ws";

/// A subcommand's entry point.
type Command = fn(&Flags) -> Result<(), String>;

fn dispatch(args: &[String]) -> Result<(), String> {
    let flags = parse_args(args)?;
    let name = flags.positional.first().map_or("help", String::as_str);
    let (command, usage): (Command, &str) = match name {
        "latency" => (cmd_latency, LATENCY_USAGE),
        "verify" => (cmd_verify, VERIFY_USAGE),
        "sample" => (cmd_sample, SAMPLE_USAGE),
        "refute-sdd" => (cmd_refute_sdd, REFUTE_SDD_USAGE),
        "commit" => (cmd_commit, COMMIT_USAGE),
        "heartbeat" => (cmd_heartbeat, HEARTBEAT_USAGE),
        "emulation" => (cmd_emulation, EMULATION_USAGE),
        "runtime-fuzz" => (cmd_runtime_fuzz, RUNTIME_FUZZ_USAGE),
        "trace-dump" => (cmd_trace_dump, TRACE_DUMP_USAGE),
        "serve" if flags.is_set("node") => (cmd_serve_node, SERVE_NODE_USAGE),
        "serve" => (cmd_serve, SERVE_USAGE),
        "serve-cluster" => (cmd_serve_cluster, SERVE_CLUSTER_USAGE),
        "load" => (cmd_load, LOAD_USAGE),
        "explore" => (cmd_explore, EXPLORE_USAGE),
        "help" => {
            println!("{USAGE}");
            return Ok(());
        }
        other => return Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    if let Some((key, _)) = flags.pairs.iter().find(|(key, _)| !usage_names(usage, key)) {
        return Err(format!("unknown flag --{key} for `ssp {name}`\n{usage}"));
    }
    command(&flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_flags_and_positionals() {
        let f = parse_args(&argv("verify a1 rs -n 4 --t 1")).unwrap();
        assert_eq!(f.positional, ["verify", "a1", "rs"]);
        assert_eq!(f.get("n"), Some("4"));
        assert_eq!(f.get("t"), Some("1"));
        assert_eq!(f.usize_or("n", 3).unwrap(), 4);
        assert_eq!(f.usize_or("missing", 9).unwrap(), 9);
    }

    #[test]
    fn missing_flag_value_is_an_error() {
        assert!(parse_args(&argv("verify --n")).is_err());
    }

    #[test]
    fn bad_number_is_an_error() {
        let f = parse_args(&argv("latency -n lots")).unwrap();
        assert!(f.usize_or("n", 3).is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(dispatch(&argv("frobnicate")).is_err());
    }

    #[test]
    fn unknown_algorithm_is_an_error() {
        assert!(dispatch(&argv("verify nonsense rs")).is_err());
    }

    #[test]
    fn help_succeeds() {
        dispatch(&argv("help")).unwrap();
        dispatch(&[]).unwrap();
    }

    #[test]
    fn verify_a1_rs_succeeds() {
        dispatch(&argv("verify a1 rs -n 3 -t 1")).unwrap();
    }

    #[test]
    fn verify_a1_rws_reports_violation_without_failing() {
        // A violation is a *finding*, not a CLI error.
        dispatch(&argv("verify a1 rws -n 3 -t 1")).unwrap();
    }

    #[test]
    fn verify_with_symmetry_and_threads_succeeds() {
        dispatch(&argv(
            "verify floodset-ws rws -n 3 -t 1 --threads 2 --sym full",
        ))
        .unwrap();
    }

    #[test]
    fn unknown_model_names_its_choices_everywhere() {
        let expected = "unknown model \"ws\" (rs or rws)";
        for cmd in [
            "verify floodset ws",
            "sample floodset ws",
            "runtime-fuzz floodset ws",
            "trace-dump floodset ws",
            "serve floodset ws",
            "load --inproc floodset ws",
        ] {
            assert_eq!(dispatch(&argv(cmd)).unwrap_err(), expected, "{cmd}");
        }
        let err = dispatch(&argv("explore floodset ws")).unwrap_err();
        assert!(
            err.starts_with(&format!("{expected}\nusage: ssp explore")),
            "{err}"
        );
    }

    #[test]
    fn verify_a1_with_full_symmetry_is_rejected() {
        // a1 is value- but not process-symmetric; the CLI mirrors the
        // compile-time gate.
        assert!(dispatch(&argv("verify a1 rs --sym full")).is_err());
        dispatch(&argv("verify a1 rs --sym values")).unwrap();
    }

    #[test]
    fn parse_seed_range_accepts_half_open() {
        assert_eq!(parse_seed_range("3..7").unwrap(), 3..7);
        assert!(parse_seed_range("7..3").is_err());
        assert!(parse_seed_range("5..5").is_err());
        assert!(parse_seed_range("nope").is_err());
    }

    #[test]
    fn runtime_fuzz_smoke() {
        dispatch(&argv("runtime-fuzz floodset rs --seed-range 0..2")).unwrap();
    }

    #[test]
    fn backend_flag_parses_and_rejects_unknown_names() {
        let f = parse_args(&argv("runtime-fuzz --backend real")).unwrap();
        assert_eq!(parse_backend(&f).unwrap(), Backend::Real);
        let f = parse_args(&argv("runtime-fuzz")).unwrap();
        assert_eq!(
            parse_backend(&f).unwrap(),
            Backend::Virtual,
            "virtual is the default"
        );
        let err = dispatch(&argv(
            "runtime-fuzz floodset rs --seed-range 0..1 --backend hourglass",
        ))
        .unwrap_err();
        assert!(err.contains("expected virtual|real"), "{err}");
        assert!(dispatch(&argv("trace-dump floodset rs --backend 3 --seed 1")).is_err());
        assert!(dispatch(&argv("serve a1 rs --instances 1 --backend sundial")).is_err());
    }

    #[test]
    fn runtime_fuzz_real_backend_smoke() {
        dispatch(&argv(
            "runtime-fuzz floodset rs --seed-range 0..1 --backend real",
        ))
        .unwrap();
    }

    #[test]
    fn runtime_fuzz_rejects_bad_bounds() {
        assert!(dispatch(&argv("runtime-fuzz a1 rws -n 3 -t 3")).is_err());
        assert!(dispatch(&argv("runtime-fuzz a1 ws")).is_err());
        assert!(dispatch(&argv("runtime-fuzz a1 rws --validity weird")).is_err());
    }

    #[test]
    fn boolean_and_equals_flags_parse() {
        let f = parse_args(&argv("runtime-fuzz --chaos --degrade=rws --loss 0.3")).unwrap();
        assert!(f.is_set("chaos"));
        assert_eq!(f.get("degrade"), Some("rws"));
        assert_eq!(f.rate_pm_or("loss", 0).unwrap(), 300);
        assert_eq!(f.rate_pm_or("dup", 50).unwrap(), 50);
        // Non-boolean flags still demand a value.
        assert!(parse_args(&argv("verify --n")).is_err());
    }

    #[test]
    fn chaos_rates_are_validated() {
        let f = parse_args(&argv("runtime-fuzz --loss 1.5")).unwrap();
        assert!(f.rate_pm_or("loss", 0).is_err());
        assert!(dispatch(&argv(
            "runtime-fuzz floodset rs --seed-range 0..1 --loss 2.0"
        ))
        .is_err());
        assert!(dispatch(&argv("runtime-fuzz a1 rws --degrade=weird")).is_err());
    }

    #[test]
    fn runtime_fuzz_chaos_smoke() {
        dispatch(&argv(
            "runtime-fuzz floodset rs --seed-range 0..2 --chaos --loss 0.3 --dup 0.1",
        ))
        .unwrap();
    }

    #[test]
    fn delta_violation_demo_all_modes() {
        dispatch(&argv("runtime-fuzz --delta-violation")).unwrap();
        dispatch(&argv("runtime-fuzz --delta-violation --degrade=rws")).unwrap();
        dispatch(&argv("runtime-fuzz --delta-violation --degrade=abort")).unwrap();
    }

    #[test]
    fn trace_dump_writes_deterministic_logs_and_diffs_them() {
        let dir = std::env::temp_dir();
        let a = dir.join("ssp-trace-dump-a.jsonl");
        let b = dir.join("ssp-trace-dump-b.jsonl");
        let c = dir.join("ssp-trace-dump-c.jsonl");
        let (a_s, b_s, c_s) = (
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            c.to_str().unwrap(),
        );
        dispatch(&argv(&format!(
            "trace-dump floodset rs --seed 3 --out {a_s}"
        )))
        .unwrap();
        dispatch(&argv(&format!(
            "trace-dump floodset rs --seed 3 --out {b_s}"
        )))
        .unwrap();
        // t=2 runs one more round, so its log must diverge from t=1's.
        dispatch(&argv(&format!(
            "trace-dump floodset rs --seed 3 -t 2 --out {c_s}"
        )))
        .unwrap();
        // Same plan ⇒ byte-identical; the diff agrees.
        assert_eq!(
            std::fs::read_to_string(&a).unwrap(),
            std::fs::read_to_string(&b).unwrap()
        );
        dispatch(&argv(&format!("trace-dump --diff {a_s} {b_s}"))).unwrap();
        // Different plan ⇒ the diff pinpoints a divergence (exit 1).
        let err = dispatch(&argv(&format!("trace-dump --diff {a_s} {c_s}"))).unwrap_err();
        assert!(err.contains("diverge"), "{err}");
        for p in [a, b, c] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn trace_dump_rejects_bad_input() {
        assert!(dispatch(&argv("trace-dump")).is_err());
        assert!(dispatch(&argv("trace-dump floodset ws")).is_err());
        assert!(dispatch(&argv("trace-dump floodset rs -n 3 -t 3")).is_err());
        assert!(dispatch(&argv("trace-dump --diff /nonexistent-ssp-log")).is_err());
    }

    #[test]
    fn serve_smoke_failure_free() {
        dispatch(&argv(
            "serve a1 rs --clients 4 --instances 3 --seed 7 --failure-free",
        ))
        .unwrap();
        dispatch(&argv(
            "serve ct rws --clients 4 --instances 3 --seed 7 --failure-free",
        ))
        .unwrap();
    }

    #[test]
    fn serve_rejects_bad_input() {
        assert!(dispatch(&argv("serve")).is_err());
        assert!(dispatch(&argv("serve a1 ws")).is_err());
        assert!(dispatch(&argv("serve a1 rs -n 3 -t 3")).is_err());
        // An undersized drain is a typed ConfigError, reported before
        // any instance runs — never a hang.
        let err =
            dispatch(&argv("serve a1 rs --instances 2 --failure-free --drain 1")).unwrap_err();
        assert!(err.contains("invalid runtime configuration"), "{err}");
        assert!(err.contains("drain"), "{err}");
    }

    #[test]
    fn serve_stats_out_is_deterministic() {
        let dir = std::env::temp_dir();
        let a = dir.join("ssp-serve-stats-a.json");
        let b = dir.join("ssp-serve-stats-b.json");
        let (a_s, b_s) = (a.to_str().unwrap(), b.to_str().unwrap());
        for path in [a_s, b_s] {
            dispatch(&argv(&format!(
                "serve a1 rs --clients 6 --instances 4 --seed 11 --loss 0.2 --stats-out {path}"
            )))
            .unwrap();
        }
        let left = std::fs::read_to_string(&a).unwrap();
        assert_eq!(left, std::fs::read_to_string(&b).unwrap());
        assert!(left.contains("\"audit_violations\":0"), "{left}");
        for p in [a, b] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn explore_smoke_with_flood_alias_and_flag_style() {
        // The acceptance invocation: flag-style arguments and the
        // `flood` shorthand both parse; the exploration terminates.
        dispatch(&argv("explore --algo flood --model rs --n 3 --t 1")).unwrap();
        // Positional style and the symmetry quotient.
        dispatch(&argv("explore floodset-ws rws --inputs 4,4,9 --sym full")).unwrap();
        // A capped walk still succeeds (and reports the truncation).
        dispatch(&argv("explore floodset rs --limit 3")).unwrap();
    }

    #[test]
    fn explore_rejects_bad_input() {
        // Unknown backend names fail at flag parsing…
        let err = dispatch(&argv("explore floodset rs --backend hourglass")).unwrap_err();
        assert!(err.contains("expected virtual|real"), "{err}");
        // …while the real clock parses fine and is refused, with the
        // reason.
        let err = dispatch(&argv("explore floodset rs --backend real")).unwrap_err();
        assert!(err.contains("deterministic clock"), "{err}");
        // Out-of-range instances are the explorer's typed bounds error.
        let err = dispatch(&argv("explore floodset rs --n 9")).unwrap_err();
        assert!(err.contains("out of exhaustive range"), "{err}");
        assert!(err.contains("n=9"), "{err}");
        let err = dispatch(&argv("explore floodset rs --n 3 --t 3")).unwrap_err();
        assert!(err.contains("out of exhaustive range"), "{err}");
        // Unknown model, algorithm, or --sym setting.
        assert!(dispatch(&argv("explore floodset ws")).is_err());
        assert!(dispatch(&argv("explore nonsense rs")).is_err());
        assert!(dispatch(&argv("explore floodset rs --sym diagonal")).is_err());
        // a1's roles are position-bound: no process quotient.
        assert!(dispatch(&argv("explore a1 rws --sym full")).is_err());
        // Contradictory instance size.
        let err = dispatch(&argv("explore floodset rs --inputs 1,2,3 --n 4")).unwrap_err();
        assert!(err.contains("contradicts"), "{err}");
        assert!(dispatch(&argv("explore floodset rs --inputs 1,zebra")).is_err());
    }

    #[test]
    fn emulation_table_succeeds() {
        dispatch(&argv("emulation -n 3 --phi 2 --delta 2 -r 4")).unwrap();
    }

    #[test]
    fn heartbeat_succeeds() {
        dispatch(&argv("heartbeat -n 3 --phi 1 --delta 2")).unwrap();
    }
}
