//! One benchmark command for the whole stack, timed from outside every
//! layer.
//!
//! ```text
//! perfbench --workload engine|gateway|failover --seed N --seconds S --trace 0|1
//!           --ssp-bin PATH --work-dir DIR
//! ```
//!
//! Every number is either the benchmark's own timing of a call into a
//! layer's public API, or a counter such a call already returns. The last
//! line of standard output is one JSON object: with `--trace 0` it holds
//! every end-to-end metric, with `--trace 1` every per-layer metric (a
//! per-layer metric of a layer the workload does not reach reads 0).
//! Human-readable tables go to standard error. See README.md for why each
//! workload and metric was chosen.

mod cluster;
mod engine;
mod trace;
mod util;
mod verify;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use trace::Tracer;

/// Gated end-to-end metrics, reported by every workload: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_share", "fraction"),
    ("ack_rounds_mean", "rounds"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: (name, unit). Layers are named
/// after the crate or module whose public call the benchmark times.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lab.verify_s", "s"),
    ("lab.ns_per_run", "ns"),
    ("lab.runs", "count"),
    ("lab.symmetry_factor", "ratio"),
    ("engine.serve_s", "s"),
    ("engine.cpu_ms_per_op", "ms"),
    ("engine.sys_share", "fraction"),
    ("engine.queue_ms_p50", "ms"),
    ("engine.queue_ms_p90", "ms"),
    ("engine.decide_ms_p50", "ms"),
    ("engine.decide_ms_p90", "ms"),
    ("engine.instances_per_op", "ratio"),
    ("engine.reproposed_share", "fraction"),
    ("engine.decide_rounds_p99", "rounds"),
    ("commit.committed_share", "fraction"),
    ("commit.timeout_no_votes", "count"),
    ("runtime.instance_us_p50", "us"),
    ("runtime.instance_us_p90", "us"),
    ("runtime.wires_per_instance", "count"),
    ("runtime.chaos_dropped_per_instance", "count"),
    ("runtime.dup_suppressed_per_instance", "count"),
    ("gateway.submit_ms_p99", "ms"),
    ("gateway.resubmissions", "count"),
    ("gateway.busy", "count"),
    ("gateway.redirects", "count"),
    ("gateway.reconnects", "count"),
    ("gateway.admitted_share", "fraction"),
    ("gateway.unavailable_ms", "ms"),
    ("gateway.outage_requests", "count"),
    ("cluster.instances_per_s", "1/s"),
    ("cluster.ops_per_instance", "ratio"),
    ("cluster.report_bytes_per_instance", "B"),
    ("cluster.node_cpu_ms_per_op", "ms"),
    ("cluster.client_cpu_ms_per_op", "ms"),
    ("cluster.merge_s", "s"),
    ("cluster.merge_rss_mb", "MiB"),
    ("cluster.teardown_s", "s"),
    ("cluster.degraded_instance_ms", "ms"),
    ("transport.delivered_per_instance", "count"),
    ("bench.trace_overhead", "fraction"),
];

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub ssp_bin: PathBuf,
    pub work_dir: PathBuf,
}

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: requests, and verifier sweeps in a traced
    /// run.
    pub attempted: u64,
    /// Operations that failed: given up, unacknowledged, or failing a
    /// correctness check.
    pub failed: u64,
    /// One line per failed check, printed to standard error.
    pub problems: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.end_to_end.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.per_layer.insert(name, value);
    }

    pub fn problem(&mut self, failed: u64, what: String) {
        self.failed += failed;
        self.problems.push(what);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ssp_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let num =
        |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("--{k}: {e}")) };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: num("seed")?,
        seconds: seconds as f64,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
        },
        ssp_bin: PathBuf::from(get("ssp-bin")?),
        work_dir: PathBuf::from(get("work-dir")?),
    })
}

fn run_workload(name: &str, ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    match name {
        "engine" => Ok(engine::run(ctx, tracer)),
        "gateway" => Ok(cluster::run(ctx, tracer, cluster::Mode::Gateway)),
        "failover" => Ok(cluster::run(ctx, tracer, cluster::Mode::Failover)),
        other => Err(format!(
            "unknown workload {other:?} (engine, gateway or failover)"
        )),
    }
}

fn json_metrics(values: &BTreeMap<&'static str, f64>, names: &[(&str, &str)]) -> String {
    let fields: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        ssp_bin: args.ssp_bin.clone(),
        work_dir: args.work_dir.clone(),
    };
    let started = Instant::now();
    let mut untraced = Tracer::new(false, started);
    let mut outcome = match run_workload(&args.workload, &ctx, &mut untraced) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace {
        // The traced pass repeats the workload with spans on; the
        // untraced pass above is its reference for the overhead.
        let mut tracer = Tracer::new(true, Instant::now());
        let traced = run_workload(&args.workload, &ctx, &mut tracer).expect("workload known");
        let ops = |o: &Outcome| o.end_to_end.get("ops_per_s").copied().unwrap_or(0.0);
        let overhead = util::ratio(ops(&outcome), ops(&traced)) - 1.0;
        let mut per_layer = traced.per_layer;
        per_layer.insert("bench.trace_overhead", overhead);
        outcome.attempted += traced.attempted;
        outcome.failed += traced.failed;
        outcome.problems.extend(traced.problems);
        outcome.per_layer = per_layer;
        print_self_times(&tracer);
        let path = ctx
            .work_dir
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, trace::to_jsonl(tracer.spans())) {
            outcome.problem(1, format!("writing {}: {e}", path.display()));
        }
    }
    // A metric left unmeasured (no operation completed) reads 0 and fails
    // the run.
    for (name, _) in END_TO_END {
        if !outcome.end_to_end.contains_key(name) {
            outcome.problem(0, format!("{name} was not measured"));
        }
    }
    for problem in &outcome.problems {
        eprintln!("perfbench: FAILED CHECK: {problem}");
    }
    let metrics = if args.trace {
        json_metrics(&outcome.per_layer, PER_LAYER)
    } else {
        json_metrics(&outcome.end_to_end, END_TO_END)
    };
    eprintln!(
        "perfbench: {} seed {} done in {:.1} s",
        args.workload,
        args.seed,
        started.elapsed().as_secs_f64()
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        outcome.failed == 0 && outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
    );
}

fn print_self_times(tracer: &Tracer) {
    eprintln!(
        "{:<40} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, own)) in trace::self_times(tracer.spans()) {
        eprintln!(
            "{name:<40} {count:>9} {:>12.3} {:>12.3}",
            util::ms(total),
            util::ms(own)
        );
    }
}
