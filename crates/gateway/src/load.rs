//! Seed-deterministic load generator for a gateway-fronted cluster.
//!
//! Two arrival disciplines over the same [`GatewayClient`] machinery:
//!
//! - **closed loop** (`concurrency = C`): `C` clients, each with at
//!   most one request in flight — submission rate adapts to decision
//!   rate, like the engine's internal [`Workload`](ssp_engine::Workload).
//! - **open loop** (`rate = R`): requests are *scheduled* at fixed
//!   `1/R` intervals regardless of ack progress, dispatched by a
//!   bounded worker pool; latency is measured from the scheduled send
//!   time, so queueing delay under overload is visible instead of
//!   hidden (the coordinated-omission correction).
//!
//! The command stream is a pure function of `(seed, client, req)`:
//! every run on the same seed writes the same key/value set, and the
//! keys live above [`LOAD_KEY_BASE`] — disjoint from the seed
//! workload's Zipf space — so a loaded cluster's replicated store
//! stays reproducible.

use std::time::{Duration, Instant};

use ssp_engine::Op;
use ssp_runtime::splitmix;

use crate::client::{ClientConfig, ClientStats, GatewayClient};
use crate::hist::ClassStats;

/// First key the load generator may write. Everything below belongs to
/// the seed-deterministic workload (Zipf over a small key space).
pub const LOAD_KEY_BASE: u32 = 1 << 16;

/// Per-client key stride: client `c`, request `r` writes key
/// `LOAD_KEY_BASE + c * LOAD_KEY_STRIDE + r` — unique per `(c, r)`, so
/// the final store is order-independent.
pub const LOAD_KEY_STRIDE: u32 = 1 << 12;

/// First external client id a load generator uses; client `c` is
/// `FIRST_CLIENT + c`.
pub(crate) const FIRST_CLIENT: u64 = 1;

/// The deterministic operation of load request `(client, req)` under
/// `seed`.
///
/// # Panics
///
/// Panics if the client index pushes the key above the 32-bit key
/// space (bound by construction in [`run_load`]).
#[must_use]
pub fn load_op(seed: u64, client: u64, req: u64) -> Op {
    let key = LOAD_KEY_BASE
        + u32::try_from(client).expect("client index fits u32") * LOAD_KEY_STRIDE
        + u32::try_from(req % u64::from(LOAD_KEY_STRIDE)).expect("bounded by modulus");
    Op::Put {
        key,
        value: splitmix(seed ^ (client << 32) ^ req),
    }
}

/// Arrival discipline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// `concurrency` closed-loop clients, one outstanding each.
    Closed {
        /// Number of concurrent clients.
        concurrency: usize,
    },
    /// Open-loop arrivals at `rate` requests per second.
    Open {
        /// Scheduled arrival rate, requests/second.
        rate: f64,
    },
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Gateway address of each cluster node, node order.
    pub targets: Vec<String>,
    /// Seed of the deterministic command stream.
    pub seed: u64,
    /// Total requests to issue.
    pub requests: u64,
    /// Arrival discipline.
    pub mode: LoadMode,
    /// Per-request give-up.
    pub deadline: Duration,
}

impl LoadConfig {
    /// Defaults: 4 closed-loop clients, 32 requests, 10 s deadline.
    #[must_use]
    pub fn new(targets: Vec<String>, seed: u64) -> Self {
        LoadConfig {
            targets,
            seed,
            requests: 32,
            mode: LoadMode::Closed { concurrency: 4 },
            deadline: Duration::from_secs(10),
        }
    }

    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Human-readable message for an empty target list, zero workers,
    /// or a non-finite/non-positive rate.
    pub fn validate(&self) -> Result<(), String> {
        if self.targets.is_empty() {
            return Err("load needs at least one gateway target".to_string());
        }
        match self.mode {
            LoadMode::Closed { concurrency: 0 } => {
                Err("--concurrency must be at least 1".to_string())
            }
            LoadMode::Open { rate } if !rate.is_finite() || rate <= 0.0 => {
                Err("--rate must be a positive number of requests per second".to_string())
            }
            _ => Ok(()),
        }
    }
}

/// What one load run produced, client side.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Requests the generator attempted.
    pub requests: u64,
    /// Requests acked by the cluster.
    pub acked: u64,
    /// Requests abandoned at the deadline.
    pub gave_up: u64,
    /// Aggregated protocol counters across all clients.
    pub client: ClientStats,
    /// Latency of single-key commands.
    pub single: ClassStats,
    /// Latency of cross-shard transactions (empty in network mode,
    /// which submits single-key commands only).
    pub cross: ClassStats,
    /// Wall clock of the whole run.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Acked requests per wall-clock second.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.acked as f64 / secs
        }
    }

    /// Renders the report as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"requests\":{},\"acked\":{},\"gave_up\":{},\
             \"resubmissions\":{},\"busy\":{},\"redirects\":{},\"reconnects\":{},\
             \"elapsed_ms\":{:.3},\"throughput\":{:.3},\
             \"single\":{},\"cross\":{}}}",
            self.requests,
            self.acked,
            self.gave_up,
            self.client.resubmissions,
            self.client.busy,
            self.client.redirects,
            self.client.reconnects,
            self.elapsed.as_secs_f64() * 1000.0,
            self.throughput(),
            self.single.to_json(),
            self.cross.to_json(),
        )
    }

    fn absorb(&mut self, stats: ClientStats, single: &ClassStats) {
        self.acked += stats.acked;
        self.gave_up += stats.gave_up;
        self.client.submitted += stats.submitted;
        self.client.acked += stats.acked;
        self.client.resubmissions += stats.resubmissions;
        self.client.busy += stats.busy;
        self.client.redirects += stats.redirects;
        self.client.reconnects += stats.reconnects;
        self.client.gave_up += stats.gave_up;
        self.single.merge(single);
    }
}

/// Open-loop worker cap: enough to keep a saturating schedule honest
/// without a thread per request.
const OPEN_LOOP_WORKERS: usize = 64;

/// Runs one load generation against a live cluster and reports
/// client-observed outcomes.
///
/// # Errors
///
/// Configuration errors from [`LoadConfig::validate`]; per-request
/// failures (deadline give-ups) are *reported*, not returned — a load
/// run against a cluster that loses a node mid-way is still a
/// successful measurement.
///
/// # Panics
///
/// Panics if a worker thread panics.
#[allow(clippy::too_many_lines)]
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, String> {
    cfg.validate()?;
    let started = Instant::now();
    let (workers, open_rate) = match cfg.mode {
        LoadMode::Closed { concurrency } => (concurrency, None),
        LoadMode::Open { rate } => (
            usize::try_from(cfg.requests)
                .unwrap_or(OPEN_LOOP_WORKERS)
                .clamp(1, OPEN_LOOP_WORKERS),
            Some(rate),
        ),
    };

    // Request i is handled by worker w = i mod W, as client
    // FIRST_CLIENT + w's (i div W)-th request — a deterministic
    // partition, so client ids and request ids are reproducible per
    // seed regardless of thread interleaving.
    let mut handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || {
            let client_id = FIRST_CLIENT + w as u64;
            let mut client_cfg = ClientConfig::new(client_id, cfg.targets.clone());
            client_cfg.deadline = cfg.deadline;
            let mut client = GatewayClient::new(client_cfg);
            let mut single = ClassStats::default();
            let mut i = w as u64;
            while i < cfg.requests {
                let req = i / workers as u64;
                #[allow(clippy::cast_precision_loss)]
                let lag = match open_rate {
                    Some(rate) => {
                        // Scheduled arrival: request i is due at i/rate.
                        let due = started + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        Instant::now().saturating_duration_since(due)
                    }
                    None => Duration::ZERO,
                };
                if let Ok(ack) = client.submit_req(req, &[load_op(cfg.seed, client_id, req)]) {
                    single.record(lag + ack.elapsed, ack.round);
                }
                i += workers as u64;
            }
            (client.stats, single)
        }));
    }

    let mut report = LoadReport {
        requests: cfg.requests,
        ..LoadReport::default()
    };
    for handle in handles {
        let (stats, single) = handle.join().expect("load worker panicked");
        report.absorb(stats, &single);
    }
    report.elapsed = started.elapsed();
    Ok(report)
}
