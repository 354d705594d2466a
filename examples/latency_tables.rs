//! Regenerates the latency-degree comparisons of §5.2–§5.3 as tables:
//! `lat`, `Lat`, `Λ` for every uniform consensus algorithm in the
//! paper, computed by exhaustive run enumeration.
//!
//! ```sh
//! cargo run --release --example latency_tables
//! ```

use ssp::algos::{
    COptFloodSet, COptFloodSetWs, EarlyDeciding, FOptFloodSet, FOptFloodSetWs, FloodSet,
    FloodSetWs, A1,
};
use ssp::lab::report::Table;
use ssp::lab::{explore_runs, LatencyAggregator, RoundModel};
use ssp::rounds::RoundAlgorithm;

fn fmt(v: Option<u32>) -> String {
    v.map_or("-".into(), |x| x.to_string())
}

fn measure_rs<A: RoundAlgorithm<u64>>(algo: &A, n: usize, t: usize) -> Vec<String> {
    let mut agg = LatencyAggregator::new();
    explore_runs(algo, RoundModel::Rs, n, t, &[0u64, 1], |run| agg.add(run));
    row(algo.name(), "RS", n, t, &agg)
}

fn measure_rws<A: RoundAlgorithm<u64>>(algo: &A, n: usize, t: usize) -> Vec<String> {
    let mut agg = LatencyAggregator::new();
    explore_runs(algo, RoundModel::Rws, n, t, &[0u64, 1], |run| agg.add(run));
    row(algo.name(), "RWS", n, t, &agg)
}

fn row(name: &str, model: &str, n: usize, t: usize, agg: &LatencyAggregator<u64>) -> Vec<String> {
    vec![
        name.to_string(),
        model.to_string(),
        format!("{n}"),
        format!("{t}"),
        format!("{}", agg.runs),
        fmt(agg.lat()),
        fmt(agg.lat_max_over_configs()),
        fmt(agg.capital_lambda()),
    ]
}

fn main() {
    let (n, t) = (3, 1);
    let mut table = Table::new(vec![
        "algorithm",
        "model",
        "n",
        "t",
        "runs",
        "lat",
        "Lat",
        "Λ",
    ]);
    table.row(measure_rs(&FloodSet, n, t));
    table.row(measure_rws(&FloodSetWs, n, t));
    table.row(measure_rs(&COptFloodSet, n, t));
    table.row(measure_rws(&COptFloodSetWs, n, t));
    table.row(measure_rs(&FOptFloodSet, n, t));
    table.row(measure_rws(&FOptFloodSetWs, n, t));
    table.row(measure_rs(&A1, n, t));
    table.row(measure_rs(&EarlyDeciding, n, t));
    println!("Latency degrees over exhaustively enumerated runs (binary inputs):\n");
    println!("{table}");
    println!("Paper checkpoints (§5.2–§5.3):");
    println!("  lat(C_OptFloodSet)   = lat(C_OptFloodSetWS)   = 1   (unanimity fast path)");
    println!("  Lat(F_OptFloodSet)   = Lat(F_OptFloodSetWS)   = 1   (t initial crashes)");
    println!("  Λ(A1)                = 1 in RS   —   every RWS algorithm has Λ ≥ 2");
}
