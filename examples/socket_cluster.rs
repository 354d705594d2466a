//! Multi-process consensus over real TCP sockets, in one example:
//! a failure-free loopback cluster, a scripted `kill -9`, and the
//! §3-caveat trichotomy (a scripted Δ violation under `off`, `rws`
//! and `abort` degradation) — every run merged and certified by the
//! same audit pipeline as in-process serving.
//!
//! Each "node" here is a thread running [`serve_node`] against real
//! sockets (the `ssp serve-cluster` command runs the same code as one
//! OS process per node; the transport cannot tell the difference).
//!
//! ```sh
//! cargo run --release --example socket_cluster
//! ```

use ssp::engine::{merge_reports, serve_node, NodeConfig};
use ssp::runtime::DegradeMode;

fn free_addr() -> String {
    let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind :0");
    l.local_addr().expect("local addr").to_string()
}

/// Runs an n-node loopback cluster in threads and returns the node
/// reports.
fn run_cluster(mk: impl Fn(usize) -> NodeConfig + Send + Sync) -> Vec<String> {
    let n = mk(0).n;
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let cfg = mk(i);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                serve_node(&cfg, &mut out).expect("node run");
                String::from_utf8(out).expect("utf8 report")
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("join"))
        .collect()
}

fn main() {
    println!("== failure-free: 3 nodes, 4 instances over 127.0.0.1 ==");
    let addrs: Vec<String> = (0..3).map(|_| free_addr()).collect();
    let base = {
        let addrs = addrs.clone();
        move |i: usize| {
            let mut c = NodeConfig::new(i, 3, addrs[i].clone(), addrs.clone(), 42);
            c.instances = 4;
            c
        }
    };
    let reports = run_cluster(&base);
    let merged = merge_reports(&base(0), &reports).expect("merge");
    println!("{}", merged.stats);
    for audit in &merged.audits {
        println!(
            "  instance {}: {} {}",
            audit.instance,
            audit.verdict,
            if audit.is_clean() {
                "(clean)"
            } else {
                "(DIRTY)"
            },
        );
    }

    println!();
    println!("== same cluster, guard degrading to RWS: Δ = 100 ms holds on loopback ==");
    let armed = {
        let addrs: Vec<String> = (0..3).map(|_| free_addr()).collect();
        move |i: usize| {
            let mut c = NodeConfig::new(i, 3, addrs[i].clone(), addrs.clone(), 42);
            c.instances = 4;
            c.degrade = DegradeMode::Rws;
            c
        }
    };
    let reports = run_cluster(&armed);
    let merged = merge_reports(&armed(0), &reports).expect("merge");
    println!(
        "  {} instances, {} decided, {} degraded — loopback stays within Δ",
        merged.stats.instances, merged.stats.decided_instances, merged.stats.degraded_instances,
    );
    assert_eq!(merged.stats.degraded_instances, 0);

    println!();
    println!("the kill -9 and Δ-violation variants need real process");
    println!("isolation — run them through the CLI:");
    println!("  ssp serve-cluster -n 4 --instances 6 --kill9 3 --gap-ms 60");
    println!("  ssp serve-cluster --delta-ms 50 --proxy-delay-ms 200 --degrade rws");
}
